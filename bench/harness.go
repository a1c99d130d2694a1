// Package bench is the step benchmark: it drives one LoRA fine-tuning
// step of the real trainer → moe → broker → wire/transport → worker path
// over TCP loopback on five pinned workloads, and measures it from
// outside, by wrapping the interfaces the program already exposes. See
// README.md.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/trainer"
	"repro/internal/transport"
)

// Options selects how a System is set up.
type Options struct {
	// Seed seeds the LoRA adapters, the corpus batcher and the profiling
	// pass; the checkpoint itself is pinned (CheckpointSeed).
	Seed int64
	// Rec, when non-nil, installs the span-recording wrappers of a traced
	// run. A timed run carries only the byte meter and the shaped link.
	Rec *Recorder
	// Dir holds churn's run-checkpoint store.
	Dir string
}

// SetupTimes are the parts of set-up that have a layer of their own.
type SetupTimes struct {
	Profile, Solve, Distribute time.Duration
}

// System is one workload, set up and warmed up, ready for timed steps.
type System struct {
	W  Workload
	FT *trainer.Finetuner
	// Exec, Topo, Problem and Assign are nil/zero without a broker.
	Exec    *broker.Executor
	Topo    cluster.Topology
	Problem *placement.Problem
	Assign  *placement.Assignment
	Times   SetupTimes

	rec       *Recorder
	meters    []*connMeter
	conns     []transport.Conn
	serveDone chan error
	churn     *churn
	closed    bool
}

// newCheckpoint generates the pre-trained checkpoint the benchmark takes
// as input and prepares it for LoRA fine-tuning. There is no
// pre-training: a seeded model already routes with strong skew, and
// PrepareForFinetune freezes the gate. The weights come from the pinned
// CheckpointSeed, as if downloaded; the run's seed initializes the
// adapters.
func newCheckpoint(cfg moe.Config, seed int64) (*moe.Model, [][]*moe.Expert) {
	rng := rand.New(rand.NewSource(CheckpointSeed))
	model := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	trainer.PrepareForFinetune(model, grid, trainer.LoRAConfig{Rank: loraRank, Alpha: loraAlpha, Seed: seed + 1})
	return model, grid
}

func newBatcher(w Workload, corpus *data.Corpus, seed int64) *data.Batcher {
	return data.NewBatcher(corpus, w.Batch, w.SeqLen, seed+2)
}

// Setup builds the workload's system and drives the warm-up steps.
func Setup(w Workload, opt Options) (*System, error) {
	s := &System{W: w, rec: opt.Rec}
	model, grid := newCheckpoint(w.Cfg, opt.Seed)
	local := model.BindLocalExperts(grid)
	corpus := data.WikiText(corpusTokens)
	batcher := newBatcher(w, corpus, opt.Seed)
	var backboneOpt *nn.AdamW
	if !w.Brokered() {
		s.FT = trainer.NewLocalFinetuner(model, local, batcher)
		if s.rec != nil {
			model.SetExecutor(&tracedExec{inner: local, rec: s.rec, fwd: spanLocalFwd, bwd: spanLocalBwd})
		}
	} else {
		if err := s.deploy(model, grid, corpus, opt.Seed); err != nil {
			return nil, err
		}
		backbone := nn.CollectTrainable(model.Params())
		backboneOpt = nn.NewAdamW(backbone, nn.PaperAdamWConfig())
		s.FT = &trainer.Finetuner{
			Model: model, Backbone: backbone, Opt: backboneOpt, Batcher: batcher,
			ExpertZero: s.Exec.ZeroGrads, ExpertStep: s.Exec.Step,
		}
	}
	if w.Churn {
		s.churn = newChurn(s, backboneOpt, batcher, opt)
	}
	if s.rec != nil {
		s.FT.Batcher = &tracedBatches{BatchSource: s.FT.Batcher, rec: s.rec}
		s.FT.Opt = &tracedOpt{inner: s.FT.Opt, rec: s.rec}
		s.FT.ExpertZero = tracedFunc(s.rec, spanExpertOpt, s.FT.ExpertZero)
		s.FT.ExpertStep = tracedFunc(s.rec, spanExpertOpt, s.FT.ExpertStep)
	}
	for i := 0; i < WarmupSteps; i++ {
		if _, _, err := s.Step(); err != nil {
			s.Close()
			return nil, fmt.Errorf("bench: %s warm-up step %d: %w", w.Name, i, err)
		}
	}
	return s, nil
}

// deploy profiles the checkpoint, solves the placement, starts one worker
// per device behind its own TCP loopback socket — the wiring of
// examples/distributed — and distributes the experts.
func (s *System) deploy(model *moe.Model, grid [][]*moe.Expert, corpus *data.Corpus, seed int64) error {
	w := s.W
	t0 := time.Now()
	stats, err := trainer.Profile(model, corpus, ProfileBatches, w.Batch, w.SeqLen, seed+3)
	if err != nil {
		return err
	}
	s.Times.Profile = time.Since(t0)

	s.Topo = cluster.Uniform(w.Workers, w.DevicesPerNode, w.Capacity, 18.3*cluster.GB, 1.17*cluster.GB)
	bw := s.Topo.Bandwidths()
	if w.Shaped {
		for n := range bw {
			bw[n] /= LinkScale
		}
	}
	s.Problem = &placement.Problem{
		Workers: w.Workers, Layers: w.Cfg.Layers, Experts: w.Cfg.Experts,
		P: stats.Prob(), Bandwidth: bw, Capacity: s.Topo.Capacities(),
		RoutingsPerStep: float64(w.Tokens() * w.Cfg.TopK),
		BytesPerToken:   placement.TokenBytes(w.Encoding, w.Cfg.D),
		WorkerNode:      s.Topo.WorkerNodes(), MasterNode: s.Topo.MasterNode,
	}
	t0 = time.Now()
	s.Assign, err = w.Strategy.Place(s.Problem)
	if err != nil {
		return fmt.Errorf("bench: placing experts with %s: %w", w.Strategy.Name(), err)
	}
	s.Times.Solve = time.Since(t0)

	s.serveDone = make(chan error, w.Workers)
	for n := 0; n < w.Workers; n++ {
		if err := s.connect(n, bw[n]); err != nil {
			s.Close()
			return err
		}
	}
	s.Exec = broker.NewExecutor(s.conns, s.Assign)
	s.Exec.WireEncoding = w.Encoding
	s.Exec.Coalesce = true
	spec := broker.ExpertSpec{D: w.Cfg.D, Hidden: w.Cfg.Hidden, LoRARank: loraRank, LoRAAlpha: loraAlpha}
	t0 = time.Now()
	if err := s.Exec.Distribute(grid, spec); err != nil {
		s.Close()
		return fmt.Errorf("bench: distributing experts: %w", err)
	}
	s.Times.Distribute = time.Since(t0)
	var exec moe.Executor = s.Exec
	if s.rec != nil {
		exec = &tracedExec{inner: s.Exec, rec: s.rec, fwd: spanExchangeFwd, bwd: spanExchangeBwd}
	}
	model.SetExecutor(exec)
	return nil
}

// connect starts worker n on a goroutine behind a fresh TCP listener and
// dials it. The master-side conn is metered, shaped when the workload
// says so, and tapped on both ends in a traced run.
func (s *System) connect(n int, bytesPerSec float64) error {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	wk := broker.NewWorker(n, broker.DefaultWorkerConfig())
	go func() {
		defer l.Close()
		conn, err := l.Accept()
		if err != nil {
			s.serveDone <- err
			return
		}
		defer conn.Close()
		if s.rec != nil {
			conn = &workerTap{Conn: conn, rec: s.rec}
		}
		s.serveDone <- wk.Serve(conn)
	}()
	tcp, err := transport.Dial(l.Addr())
	if err != nil {
		l.Close() // unblocks Accept, so the goroutine reports and exits
		<-s.serveDone
		return err
	}
	meter := &connMeter{}
	var conn transport.Conn
	var link *Shaped
	if s.W.Shaped {
		link = Shape(tcp, meter, bytesPerSec)
		conn = link
	} else {
		conn = transport.WithMeter(tcp, meter)
	}
	if s.rec != nil {
		conn = newMasterTap(conn, link, s.rec, n)
	}
	s.meters = append(s.meters, meter)
	s.conns = append(s.conns, conn)
	return nil
}

// Step drives one fine-tuning step and, on churn, the step-boundary hook.
// It returns the wall time of Finetuner.Step alone and of the hook.
func (s *System) Step() (step, hook time.Duration, err error) {
	k := s.FT.Losses.Len()
	s.rec.startStep(k)
	t0 := time.Now()
	id := s.rec.begin(spanStep, 0)
	_, err = s.FT.Step()
	s.rec.end(id)
	step = time.Since(t0)
	if err != nil || s.churn == nil {
		return step, 0, err
	}
	s.rec.startHook()
	t0 = time.Now()
	err = s.churn.onStep(k)
	return step, time.Since(t0), err
}

// Bytes returns the encoded frame bytes and frames moved over the
// master-side conns so far, and the bytes of the cross-node conns.
func (s *System) Bytes() (wire, crossNode, frames int64) {
	for n, m := range s.meters {
		b := m.bytes.Load()
		wire += b
		frames += m.frames.Load()
		if s.Topo.CrossNode(n) {
			crossNode += b
		}
	}
	return wire, crossNode, frames
}

// Close shuts the workers down, waits until every serve goroutine has
// ended and removes churn's checkpoint store. A second call does nothing.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.Exec != nil {
		keep(s.Exec.Shutdown())
	}
	for _, c := range s.conns {
		keep(c.Close())
	}
	for range s.conns {
		keep(<-s.serveDone)
	}
	if s.churn != nil {
		keep(os.RemoveAll(s.churn.store.Dir))
	}
	return first
}

// churn is the step-boundary hook of the churn workload: what velamaster
// wires as Finetuner.OnStep, but with the run checkpoint written
// synchronously so its cost lands on the step boundary it belongs to.
type churn struct {
	sys     *System
	sup     *broker.Supervisor
	capture *core.RunCapture
	store   *checkpoint.RunStore
	// layouts are the two fixed assignments Rebalance toggles between;
	// they differ in four experts and keep every worker's load.
	layouts [2]*placement.Assignment
	next    int

	churnTotals
}

// churnTotals accumulate what the hook cost, for the checkpoint.* and
// broker.migrate metrics; Run zeroes them when the timed phase starts.
type churnTotals struct {
	snapshot, runSave, rebalance time.Duration
	boundaries, rebalances       int
	moved                        int
	savedBytes                   int64
}

func newChurn(s *System, opt *nn.AdamW, batcher *data.Batcher, o Options) *churn {
	c := &churn{
		sys:   s,
		sup:   broker.NewSupervisor(s.Exec, s.Problem, broker.SupervisorConfig{}),
		store: &checkpoint.RunStore{Dir: filepath.Join(o.Dir, s.W.Name+".ckpt")},
	}
	c.capture = &core.RunCapture{
		Backbone: s.FT.Backbone, Opt: opt, Exec: s.Exec, Sup: c.sup,
		Cursor: batcher.Cursor, Seek: batcher.SeekTo,
		Losses: &s.FT.Losses, Seeds: []int64{o.Seed},
	}
	// The second layout swaps experts 0 and 1 of the first two layers
	// between their hosts.
	alt := s.Assign.Clone()
	for l := 0; l < 2; l++ {
		alt.Worker[l][0], alt.Worker[l][1] = alt.Worker[l][1], alt.Worker[l][0]
	}
	c.layouts = [2]*placement.Assignment{s.Assign, alt}
	c.next = 1
	return c
}

func (c *churn) onStep(step int) error {
	rec := c.sys.rec
	if (step+1)%CheckpointEvery == 0 {
		t0 := time.Now()
		id := rec.begin(spanSnapshot, 0)
		err := c.sup.Checkpoint(step)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: expert snapshot: %w", err)
		}
		t1 := time.Now()
		id = rec.begin(spanRunSave, 0)
		rs, err := core.CaptureRun(step, c.capture)
		var size int64
		if err == nil {
			_, size, err = c.store.Save(rs)
		}
		rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: run checkpoint: %w", err)
		}
		c.snapshot += t1.Sub(t0)
		c.runSave += time.Since(t1)
		c.savedBytes += size
		c.boundaries++
	}
	if (step+1)%RebalanceEvery == 0 {
		t0 := time.Now()
		id := rec.begin(spanRebalance, 0)
		moved, err := c.sys.Exec.Rebalance(c.layouts[c.next])
		rec.end(id)
		if err != nil {
			return fmt.Errorf("bench: rebalance: %w", err)
		}
		c.rebalance += time.Since(t0)
		c.rebalances++
		c.moved += moved
		c.next = 1 - c.next
	}
	return nil
}
