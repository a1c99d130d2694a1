// Distributed: a complete master + 6-worker VELA deployment over real TCP
// loopback sockets in a single process — the same code path as the
// separate velamaster/velaworker binaries, self-contained for easy
// experimentation. It fine-tunes twice, once with sequential placement
// and once with the locality-aware LP, and compares the two runs:
// it exits non-zero unless the loss series are bit-identical and the LP
// moved strictly fewer measured cross-node bytes.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const (
	batch  = 2
	seqLen = 32
	steps  = 10
)

func run() error {
	cfg := moe.Config{Vocab: data.VocabSize, D: 24, Heads: 2, Hidden: 48, Layers: 6, Experts: 6, TopK: 2}
	topo := cluster.Uniform(6, 2, 8, 18.3*cluster.GB, 1.17*cluster.GB)
	corpus := data.WikiText(16000)

	fmt.Println("pre-training the shared checkpoint...")
	pre := trainer.DefaultPretrain()
	pre.Steps = 80
	// Profile locality once, on a throwaway copy of the checkpoint.
	probeModel, _, err := trainer.BuildPretrained(cfg, 16000, pre)
	if err != nil {
		return err
	}
	stats, err := trainer.Profile(probeModel, corpus, 10, batch, seqLen, 31)
	if err != nil {
		return err
	}

	var losses [2][]float64
	var cross [2]int64
	for i, strat := range []placement.Strategy{placement.Sequential{}, placement.LocalityLP{}} {
		cross[i], losses[i], err = runOnce(cfg, topo, corpus, stats, strat, pre)
		if err != nil {
			return fmt.Errorf("%s: %w", strat.Name(), err)
		}
		fmt.Printf("%-10s final loss %.4f, measured cross-node traffic %.2f MB\n",
			strat.Name(), losses[i][steps-1], float64(cross[i])/1e6)
	}
	switch {
	case !testutil.BitEqualSlices(losses[0], losses[1]):
		return fmt.Errorf("FAIL: placement changed the loss trajectory:\n  sequential %v\n  vela-lp    %v", losses[0], losses[1])
	case cross[1] >= cross[0]:
		return fmt.Errorf("FAIL: vela-lp moved %d cross-node bytes, sequential %d; want strictly fewer", cross[1], cross[0])
	}
	fmt.Println("PASS: loss trajectories bit-identical, locality-aware placement moved fewer cross-node bytes")
	return nil
}

// runOnce attaches a fresh checkpoint to TCP workers under the given
// placement strategy and fine-tunes it, returning the measured cross-node
// bytes and the loss series.
func runOnce(cfg moe.Config, topo cluster.Topology, corpus *data.Corpus,
	stats *moe.AccessStats, strat placement.Strategy, pre trainer.PretrainConfig) (int64, []float64, error) {

	model, grid, err := trainer.BuildPretrained(cfg, 16000, pre)
	if err != nil {
		return 0, nil, err
	}
	lora := trainer.LoRAConfig{Rank: 4, Alpha: 8, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)

	// Launch one real TCP worker per device.
	conns := make([]transport.Conn, topo.NumWorkers())
	serveDone := make(chan error, topo.NumWorkers())
	for i := 0; i < topo.NumWorkers(); i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return 0, nil, err
		}
		w := broker.NewWorker(i, broker.DefaultWorkerConfig())
		go func(l *transport.Listener, w *broker.Worker) {
			defer l.Close()
			conn, err := l.Accept()
			if err != nil {
				serveDone <- err
				return
			}
			serveDone <- w.Serve(conn)
		}(l, w)
		c, err := transport.Dial(l.Addr())
		if err != nil {
			return 0, nil, err
		}
		conns[i] = c
	}

	sys, err := core.Attach(model, conns, core.Options{
		Topo:            topo,
		Strategy:        strat,
		Stats:           stats,
		RoutingsPerStep: float64(batch * seqLen * cfg.TopK),
		LoRA:            lora,
	})
	if err != nil {
		return 0, nil, err
	}
	if err := sys.Distribute(grid); err != nil {
		return 0, nil, err
	}
	ft := sys.Finetuner(data.NewBatcher(corpus, batch, seqLen, 43))
	if err := ft.Run(steps, nil); err != nil {
		return 0, nil, err
	}

	if err := sys.Close(); err != nil {
		return 0, nil, err
	}
	for range conns {
		if err := <-serveDone; err != nil {
			return 0, nil, err
		}
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			return 0, nil, err
		}
	}
	return sys.CrossNodeBytes(), ft.Losses.Values, nil
}
