package broker

import (
	"strings"
	"testing"

	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestMigratePreservesExpertWeights: after migrating an expert to another
// worker, forwarding through it yields exactly the same output.
func TestMigratePreservesExpertWeights(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 21)
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}

	x := tensor.Full(0.3, 3, cfg.D)
	before, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: x.Clone()})
	if err != nil {
		t.Fatal(err)
	}

	// Move expert (0,0) from worker 0 to worker 1.
	if err := exec.migrate(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if exec.Assignment().Worker[0][0] != 1 {
		t.Fatal("assignment not updated after migration")
	}
	if dep.Workers[0].NumExperts() != 0 || dep.Workers[1].NumExperts() != 2 {
		t.Fatalf("expert counts after migration: %d / %d",
			dep.Workers[0].NumExperts(), dep.Workers[1].NumExperts())
	}

	after, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: x.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before[0].Data {
		if !testutil.BitEqual(before[0].Data[i], after[0].Data[i]) {
			t.Fatal("migrated expert produces different output")
		}
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

func TestMigrateToSameWorkerIsNoop(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 22)
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	if err := exec.migrate(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if dep.Workers[0].NumExperts() != 1 {
		t.Fatal("no-op migration changed hosting")
	}
	_ = exec.Shutdown()
	_ = dep.Wait()
}

// TestMigrateUnknownExpertErrors: nothing was distributed, so the source
// the assignment names does not host the expert; the worker says so and
// the assignment stays.
func TestMigrateUnknownExpertErrors(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	err := exec.migrate(0, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "does not host") {
		t.Fatalf("err = %v", err)
	}
	if got := exec.Assignment().Worker[0][0]; got != 0 {
		t.Fatalf("assignment moved to %d despite failed migrate", got)
	}
	_ = exec.Shutdown()
	_ = dep.Wait()
}

// TestRebalanceMovesOnlyChangedExperts and continues serving afterwards.
func TestRebalance(t *testing.T) {
	cfg := moe.Config{Vocab: 12, D: 4, Heads: 1, Hidden: 6, Layers: 2, Experts: 4, TopK: 2}
	m, grid := buildFinetuneSetup(cfg, 23)
	const workers = 2
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(exec)

	// New layout: everything on worker 1.
	next := placement.NewAssignment(cfg.Layers, cfg.Experts)
	for l := range next.Worker {
		for e := range next.Worker[l] {
			next.Worker[l][e] = 1
		}
	}
	moved, err := exec.Rebalance(next)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin over 2 workers placed half the experts on worker 0.
	if moved != cfg.Layers*cfg.Experts/2 {
		t.Fatalf("moved %d experts, want %d", moved, cfg.Layers*cfg.Experts/2)
	}
	if dep.Workers[0].NumExperts() != 0 || dep.Workers[1].NumExperts() != cfg.Layers*cfg.Experts {
		t.Fatalf("post-rebalance hosting: %d / %d", dep.Workers[0].NumExperts(), dep.Workers[1].NumExperts())
	}

	// The model still trains through the new layout.
	ids := []int{1, 2, 3, 4, 5, 6}
	if _, err := m.Forward(ids, 1, 6); err != nil {
		t.Fatalf("forward after rebalance: %v", err)
	}

	// Rebalancing to the same layout moves nothing.
	moved, err = exec.Rebalance(next)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("idempotent rebalance moved %d experts", moved)
	}
	_ = exec.Shutdown()
	_ = dep.Wait()
}

func TestRebalanceGeometryMismatch(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 2, Experts: 2, TopK: 1}
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 1))
	if _, err := exec.Rebalance(placement.NewAssignment(1, 2)); err == nil {
		t.Fatal("geometry mismatch must fail")
	}
	_ = exec.Shutdown()
	_ = dep.Wait()
}
