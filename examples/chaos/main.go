// Chaos: the fault-tolerant broker under fire. A 3-worker VELA
// deployment fine-tunes for a few steps while a fault injector severs
// one worker's connection abruptly mid-step. The supervisor detects the
// fatal failure, re-solves the placement over the survivors, restores
// the dead worker's experts from the latest step-boundary snapshot, and
// the trainer re-drives the interrupted step on the same batch — so the
// run completes with the SAME loss trajectory as a failure-free run.
// Self-checking: exits non-zero unless the difference is bit-zero and
// exactly one failover and one retried step were counted.
//
// Run with: go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

const (
	workers = 3
	steps   = 8
	killAt  = 2 // arm the connection kill after this step's snapshot
	batch   = 2
	seqLen  = 16
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := moe.Config{Vocab: data.VocabSize, D: 16, Heads: 2, Hidden: 24, Layers: 3, Experts: 3, TopK: 2}
	pre := trainer.DefaultPretrain()
	pre.Steps = 60

	fmt.Println("running failure-free reference...")
	clean, _, err := finetune(cfg, pre, false)
	if err != nil {
		return err
	}

	fmt.Printf("running chaos: worker 2's connection is severed mid-step after step %d...\n", killAt)
	chaos, sys, err := finetune(cfg, pre, true)
	if err != nil {
		return err
	}
	ctr := sys.Exec.Counters
	failovers, retries := ctr.Get(obs.WorkerFailovers), ctr.Get(obs.StepRetries)

	fmt.Printf("\n%-6s %-14s %-14s\n", "step", "failure-free", "with failover")
	maxDiff := 0.0
	for s := range clean {
		fmt.Printf("%-6d %-14.6f %-14.6f\n", s, clean[s], chaos[s])
		if d := math.Abs(clean[s] - chaos[s]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nmax per-step loss difference: %.2e\n", maxDiff)
	// The exit report for the chaos run: the counter table (its recovery
	// line is the failover's audit trail), the phase breakdown and how far
	// measured routing drifted from the (uniform) placement-time P.
	if err := obs.WriteReport(os.Stdout, sys.MetricsSource()); err != nil {
		return err
	}

	switch {
	case !testutil.BitEqual(maxDiff, 0):
		return fmt.Errorf("FAIL: failover perturbed the loss trajectory (max diff %.2e)", maxDiff)
	case failovers != 1 || retries != 1:
		return fmt.Errorf("FAIL: %d failover(s) and %d step retries, want exactly 1 and 1", failovers, retries)
	}
	fmt.Println("PASS: one failover, one retried step, loss trajectory bit-identical")
	return nil
}

// finetune builds a fresh deterministic checkpoint, attaches it to
// in-process workers, and fine-tunes it — optionally killing worker 2's
// connection abruptly after the killAt-th step's snapshot.
func finetune(cfg moe.Config, pre trainer.PretrainConfig, kill bool) ([]float64, *core.System, error) {
	model, grid, err := trainer.BuildPretrained(cfg, 8000, pre)
	if err != nil {
		return nil, nil, err
	}
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)

	handle := obs.NewHandle(obs.Config{Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts})

	// Workers run SGD so a snapshot-restored expert recomputes the
	// retried step exactly; AdamW moments would restart on the new host.
	dep := broker.StartLocalWorkers(workers, broker.WorkerConfig{Optimizer: broker.OptSGD, LR: 0.05, Obs: handle})
	conns := append([]transport.Conn(nil), dep.Conns...)
	var faulty *transport.Faulty
	if kill {
		faulty = transport.NewFaulty(conns[2], 7, transport.FaultPlan{})
		conns[2] = faulty
	}

	// Random-token batches leave no corpus to profile, so the placement
	// instance is the uninformed one: every expert equally popular, equal
	// links, each worker able to host the whole grid (absorbs any failover).
	stats := moe.NewAccessStats(cfg.Layers, cfg.Experts)
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.Experts; e++ {
			stats.Counts[l][e] = 1
		}
	}
	sys, err := core.Attach(model, conns, core.Options{
		Topo:            cluster.Uniform(workers, 1, cfg.Layers*cfg.Experts, cluster.GB, cluster.GB),
		Strategy:        placement.Sequential{},
		Stats:           stats,
		RoutingsPerStep: float64(batch * seqLen * cfg.TopK),
		LoRA:            lora,
		Obs:             handle,
	})
	if err != nil {
		return nil, nil, err
	}
	sys.Exec.RequestTimeout = 2 * time.Second // generous for loopback, bounded for a dead peer
	if err := sys.Distribute(grid); err != nil {
		return nil, nil, err
	}
	sup := sys.Supervisor(broker.SupervisorConfig{})
	sup.OnFailover = func(dead []int, next *placement.Assignment) {
		fmt.Printf("  supervisor: worker(s) %v declared dead, experts failed over to survivors\n", dead)
	}

	ft := sys.Finetuner(&randomBatcher{rng: rand.New(rand.NewSource(31)), vocab: cfg.Vocab})
	ft.Opt = nn.NewSGD(ft.Backbone, 0.05)
	ft.OnStep = func(step int) error {
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		if kill && step == killAt {
			// Armed AFTER this step's snapshot: the next frame to
			// worker 2 severs the connection mid-step.
			faulty.ArmClose(0)
		}
		return nil
	}
	if err := ft.Run(steps, nil); err != nil {
		return nil, nil, err
	}
	if err := sys.Close(); err != nil {
		return nil, nil, err
	}
	for n, werr := range dep.WaitAll() {
		if werr != nil && sys.Exec.Alive(n) {
			return nil, nil, fmt.Errorf("live worker %d exited with %w", n, werr)
		}
	}
	return ft.Losses.Values, sys, nil
}

// randomBatcher yields a deterministic sequence of distinct batches, so
// a recovery bug that re-drove a step on the wrong batch would visibly
// change the loss trace.
type randomBatcher struct {
	rng   *rand.Rand
	vocab int
}

func (b *randomBatcher) Next() ([]int, []int) {
	n := batch * seqLen
	ids := make([]int, n)
	targets := make([]int, n)
	for i := range ids {
		ids[i] = b.rng.Intn(b.vocab)
		targets[i] = b.rng.Intn(b.vocab)
	}
	return ids, targets
}

func (b *randomBatcher) Shape() (int, int) { return batch, seqLen }
