package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/trainer"
	"repro/internal/transport"
)

// EP is conventional expert parallelism, the paper's baseline (§II,
// Fig. 2): R ordinary masters sharing workers. Rank r is a System that
// Attach builds on worker r's node with placement.EP's layout; it runs
// System.Finetuner's run on the r-th contiguous shard of each global
// batch, and each worker serves every rank in turns (broker.Worker.Serve),
// rows concatenated in rank order. What R > 1 adds is written here. Size
// sync: a rank pads every exchange with 0-row batches to all the layer's
// experts, so every worker gets a frame per turn (EP's all-to-all).
// All-reduce: a rank's ExpertStep averages the backbone LoRA gradients
// over the ranks, in rank order. A failure anywhere aborts every rank.
// The Systems stay private: one rank's supervisor ping or snapshot would
// stall every worker's turn.
type EP struct {
	Ranks []*trainer.Finetuner
	Execs []*broker.Executor

	src     trainer.BatchSource
	pipes   []transport.Conn // every rank's ends: closing them severs every pipe
	done    chan struct{}
	stop    sync.Once
	workers sync.WaitGroup
	// allReduce's rendezvous: gradients by rank, arrivals, the release.
	mu      sync.Mutex
	pending [][]*nn.Param
	arrived int
	release chan struct{}
}

// DeployEP assembles EP over in-process pipes from a checkpoint as saved
// (before trainer.PrepareForFinetune), one replica with lora per rank and
// one rank per topo device, whose node is the rank's for cross-node
// traffic. src yields the global batches, which the ranks must divide.
func DeployEP(model *moe.Model, grid [][]*moe.Expert, topo cluster.Topology, lora trainer.LoRAConfig, src trainer.BatchSource) (*EP, error) {
	ranks := topo.NumWorkers()
	if batch, _ := src.Shape(); ranks < 2 || batch%ranks != 0 {
		return nil, fmt.Errorf("core: EP needs at least 2 ranks, dividing the batch of %d; got %d", batch, ranks)
	}
	raw, err := checkpoint.Encode(model, grid)
	if err != nil {
		return nil, fmt.Errorf("core: EP replicas: %w", err)
	}
	cfg := model.Cfg
	var grid0 [][]*moe.Expert // the replicas' grids are one grid; one is distributed
	systems := make([]*System, ranks)
	p := &EP{src: src, done: make(chan struct{}), pending: make([][]*nn.Param, ranks), release: make(chan struct{})}
	ends := make([][]transport.Conn, ranks) // ends[w][r]: worker w's end of rank r's pipe
	for r := range systems {
		m, g, err := checkpoint.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("core: EP replicas: %w", err)
		}
		trainer.PrepareForFinetune(m, g, lora)
		grid0 = g
		conns := make([]transport.Conn, ranks)
		for w := range conns {
			var end transport.Conn
			conns[w], end = transport.Pipe()
			ends[w] = append(ends[w], end)
		}
		p.pipes = append(p.pipes, conns...)
		at := topo
		at.MasterNode = topo.Devices[r].Node
		sys, err := Attach(m, conns, Options{Topo: at, Strategy: placement.EP{}, Stats: moe.NewAccessStats(cfg.Layers, cfg.Experts), LoRA: lora})
		var ft *trainer.Finetuner
		if err == nil {
			ft, err = sys.Finetuner(src)
		}
		if err != nil {
			p.abort()
			return nil, fmt.Errorf("core: EP rank %d: %w", r, err)
		}
		x := sys.Exec
		m.SetExecutor(epExec{x, cfg.Experts, tensor.Zeros(0, cfg.D)})
		ft.ExpertStep = func() error {
			if err := x.Step(); err != nil {
				return err
			}
			return p.allReduce(r, ft.Backbone)
		}
		systems[r], p.Ranks, p.Execs = sys, append(p.Ranks, ft), append(p.Execs, x)
	}
	for w := range ends {
		wk := broker.NewWorker(w, broker.WorkerConfig{Optimizer: broker.OptAdamW, AdamW: nn.PaperAdamWConfig()})
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			if wk.Serve(ends[w]...) != nil {
				p.abort()
			}
		}()
	}
	if err := p.all(func(r int) error { return systems[r].Distribute(grid0) }); err != nil {
		p.workers.Wait()
		return nil, err
	}
	return p, nil
}

// Step draws the global batch, hands rank r its r-th contiguous shard and
// steps every rank side by side. The loss is the ranks' mean, in rank order.
func (p *EP) Step() (float64, error) {
	ids, targets := p.src.Next()
	batch, seqLen := p.src.Shape()
	n, b := len(ids)/len(p.Ranks), batch/len(p.Ranks)
	for r, ft := range p.Ranks {
		ft.Batcher = trainer.NewFixedBatcher(ids[r*n:(r+1)*n], targets[r*n:(r+1)*n], b, seqLen)
	}
	if err := p.all(func(r int) error { _, err := p.Ranks[r].Step(); return err }); err != nil {
		return 0, err
	}
	var sum float64
	for _, ft := range p.Ranks {
		sum += ft.Losses.Values[ft.Losses.Len()-1]
	}
	return sum / float64(len(p.Ranks)), nil
}

// Close shuts the workers down in one turn of every rank and waits for
// them; after a failure or a first Close it fails at once.
func (p *EP) Close() error {
	err := p.all(func(r int) error { return p.Execs[r].Shutdown() })
	p.abort()
	p.workers.Wait()
	return err
}

// all runs f for every rank side by side, as EP's turns need. A failing
// rank aborts EP, so no rank waits on it forever in a turn or all-reduce.
func (p *EP) all(f func(r int) error) error {
	errs := make([]error, len(p.Ranks))
	var wg sync.WaitGroup
	for r := range p.Ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(r); err != nil {
				errs[r] = fmt.Errorf("core: EP rank %d: %w", r, err)
				p.abort()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// abort severs every pipe and releases the all-reduce, failing whatever
// rank or worker waits on either.
func (p *EP) abort() {
	p.stop.Do(func() {
		close(p.done)
		for _, c := range p.pipes {
			_ = c.Close()
		}
	})
}

// allReduce averages the ranks' backbone gradients in place: the last rank
// to arrive adds them element by element in rank order, divides by R,
// writes the mean into every rank and releases the others.
func (p *EP) allReduce(r int, grads []*nn.Param) error {
	p.mu.Lock()
	p.pending[r], p.arrived = grads, p.arrived+1
	release := p.release
	if p.arrived == len(p.pending) {
		for i, g := range grads {
			for j := range g.Grad.Data {
				var s float64
				for _, q := range p.pending {
					s += q[i].Grad.Data[j]
				}
				for _, q := range p.pending {
					q[i].Grad.Data[j] = s / float64(len(p.pending))
				}
			}
		}
		p.arrived, p.release = 0, make(chan struct{})
		close(release)
	}
	p.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-p.done:
		return errors.New("core: EP aborted by a failure elsewhere")
	}
}

// epExec is a rank's broker executor, every exchange padded (size sync).
type epExec struct {
	x       *broker.Executor
	experts int
	empty   *tensor.Tensor // 0×D
}

func (e epExec) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return e.x.ForwardExperts(layer, e.pad(batches))
}

func (e epExec) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return e.x.BackwardExperts(layer, e.pad(grads))
}

func (e epExec) pad(batches map[int]*tensor.Tensor) map[int]*tensor.Tensor {
	all := make(map[int]*tensor.Tensor, e.experts)
	for i := 0; i < e.experts; i++ {
		if all[i] = batches[i]; all[i] == nil {
			all[i] = e.empty
		}
	}
	return all
}
