package broker

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// forwardAll pushes one deterministic batch through every expert of every
// layer and returns the outputs, flattened per (layer, expert).
func forwardAll(t *testing.T, exec *Executor, layers, experts, d int) map[[2]int]*tensor.Tensor {
	t.Helper()
	out := make(map[[2]int]*tensor.Tensor)
	for l := 0; l < layers; l++ {
		batches := make(map[int]*tensor.Tensor, experts)
		for e := 0; e < experts; e++ {
			batches[e] = tensor.Full(0.1*float64(e+1), 2, d)
		}
		res, err := exec.ForwardExperts(l, batches)
		if err != nil {
			t.Fatalf("forward layer %d: %v", l, err)
		}
		for e, y := range res {
			out[[2]int{l, e}] = y
		}
	}
	return out
}

// TestAssignmentPublicationIsRaceFree hammers Assignment() from reader
// goroutines (the supervisor heartbeat's and metrics scraper's view)
// while Rebalance migrates experts back and forth. Run under -race this
// pins the atomic-pointer publication: readers must always observe a
// complete, valid grid, never an in-place mutation.
func TestAssignmentPublicationIsRaceFree(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	const workers = 3
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 33)
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	layoutA := roundRobinAssignment(cfg, workers)
	exec := NewExecutor(dep.Conns, layoutA.Clone())
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}

	layoutB := layoutA.Clone()
	for l := range layoutB.Worker {
		for e := range layoutB.Worker[l] {
			layoutB.Worker[l][e] = (layoutB.Worker[l][e] + 1) % workers
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := exec.Assignment()
				for l, row := range a.Worker {
					if len(row) != cfg.Experts {
						t.Errorf("reader saw truncated layer %d: %d experts", l, len(row))
						return
					}
					for e, n := range row {
						if n < 0 || n >= workers {
							t.Errorf("reader saw invalid worker %d for L%d/E%d", n, l, e)
							return
						}
					}
				}
			}
		}()
	}

	for i := 0; i < 5; i++ {
		if _, err := exec.Rebalance(layoutB); err != nil {
			t.Fatalf("rebalance to B: %v", err)
		}
		if _, err := exec.Rebalance(layoutA); err != nil {
			t.Fatalf("rebalance to A: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

// TestExecutePlanRejectsStalePlan: a plan computed against an assignment
// that has since changed must abort before migrating on bad information.
func TestExecutePlanRejectsStalePlan(t *testing.T) {
	const workers = 2
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 34)
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}

	// Expert (0,1) lives on worker 1; a plan claiming it is on worker 0 is
	// stale and must not execute.
	stale := []placement.Move{{Layer: 0, Expert: 1, From: 0, To: 0}}
	if _, err := exec.ExecutePlan(stale); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale plan not rejected: %v", err)
	}
	// A move whose expert already reached its destination is a no-op, not
	// an error (plans survive partial re-execution).
	done := []placement.Move{{Layer: 0, Expert: 0, From: 1, To: 0}}
	if n, err := exec.ExecutePlan(done); err != nil || n != 0 {
		t.Fatalf("already-done move should be skipped: n=%d err=%v", n, err)
	}

	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

// TestRecoverAfterRebalanceUsesRepairedAssignment is the chaos-style
// regression for the failover/rebalance interaction: a worker dies AFTER
// a rebalance but BEFORE the next step-boundary snapshot. Recover must
// compute the orphans from the live (post-rebalance) assignment and
// restore them onto the repaired layout — not resurrect the snapshot's
// pre-rebalance placement. Experts the rebalance moved OFF the dying
// worker must stay exactly where the rebalance put them.
func TestRecoverAfterRebalanceUsesRepairedAssignment(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	const workers = 3
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 35)
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())

	conns := append([]transport.Conn(nil), dep.Conns...)
	faulty := transport.NewFaulty(conns[2], 7, transport.FaultPlan{})
	conns[2] = faulty

	exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
	exec.RequestTimeout = 2 * time.Second
	exec.Counters = obs.NewCounters(nil)
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	ref := forwardAll(t, exec, cfg.Layers, cfg.Experts, cfg.D)

	sup := NewSupervisor(exec, uniformProblem(cfg, workers), SupervisorConfig{})
	// Snapshot the PRE-rebalance layout (round-robin: e%3).
	if err := sup.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	// Rebalance: expert 1 moves w1→w2 (onto the soon-dead worker), expert
	// 2 moves w2→w0 (off it). The snapshot predates both moves.
	next := exec.Assignment().Clone()
	for l := range next.Worker {
		next.Worker[l][1] = 2
		next.Worker[l][2] = 0
	}
	if _, err := exec.Rebalance(next); err != nil {
		t.Fatal(err)
	}

	// Worker 2 dies before any new snapshot; the next frame severs it.
	faulty.ArmClose(0)
	_, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{1: tensor.Full(0.2, 2, cfg.D)})
	if err == nil {
		t.Fatal("forward through dead worker should fail")
	}
	restore := func(next *placement.Assignment) error { return exec.RestoreExperts(sup.Latest().Entries, next) }
	if rerr := sup.Recover(exec.Assignment(), restore); rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}

	after := exec.Assignment()
	for l := 0; l < cfg.Layers; l++ {
		// Orphaned expert 1 restored onto a survivor.
		if n := after.Worker[l][1]; n == 2 {
			t.Fatalf("layer %d: orphaned expert 1 still assigned to dead worker", l)
		}
		// Expert 2 keeps its post-rebalance home: a recover that replayed
		// the snapshot's layout would have put it back on worker 2 (dead)
		// or restored a stale copy elsewhere.
		if n := after.Worker[l][2]; n != 0 {
			t.Fatalf("layer %d: expert 2 on worker %d, want post-rebalance worker 0", l, n)
		}
	}

	// Every expert still computes, bit-identically to before the chaos.
	got := forwardAll(t, exec, cfg.Layers, cfg.Experts, cfg.D)
	for key, want := range ref {
		y := got[key]
		if y == nil {
			t.Fatalf("expert L%d/E%d lost after recover", key[0], key[1])
		}
		for i := range want.Data {
			if !testutil.BitEqual(want.Data[i], y.Data[i]) {
				t.Fatalf("expert L%d/E%d output diverged after recover", key[0], key[1])
			}
		}
	}

	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for n, werr := range dep.WaitAll() {
		if werr != nil && exec.Alive(n) {
			t.Fatalf("live worker %d exited with %v", n, werr)
		}
	}
}
