package broker

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// migrateSetup starts two workers with the test grid distributed
// round-robin and returns the deployment and executor.
func migrateSetup(t *testing.T) (*LocalDeployment, *Executor) {
	t.Helper()
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 29)
	dep := StartLocalWorkers(2, WorkerConfig{})
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	return dep, exec
}

// TestMigrateToDeadWorkerLeavesStateIntact: migrating onto a worker the
// supervisor has declared dead must fail fast, leave the assignment
// unchanged, and leave the expert serving on its source.
func TestMigrateToDeadWorkerLeavesStateIntact(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	dep, exec := migrateSetup(t)
	cfg := testConfig()
	exec.MarkDead(1)

	// Expert 0 of layer 0 lives on worker 0; try to push it to dead 1.
	if err := exec.migrate(0, 0, 1); !errors.Is(err, ErrWorkerDead) {
		t.Fatalf("migrate to dead worker = %v, want ErrWorkerDead", err)
	}
	if got := exec.Assignment().Worker[0][0]; got != 0 {
		t.Fatalf("assignment moved to %d despite failed migrate", got)
	}
	out, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: tensor.Zeros(1, cfg.D)})
	if err != nil || out[0] == nil {
		t.Fatalf("source must keep serving the expert: %v", err)
	}
	dep.Close()
	_ = dep.WaitAll()
}

// TestMigrateSurvivesDestinationCrash is the regression for the old
// fetch-then-assign ordering, which destructively removed the expert
// from its source BEFORE talking to the destination — a destination
// crash then lost the expert entirely. With snapshot-first ordering the
// crash costs nothing: assignment unchanged, source still serving.
func TestMigrateSurvivesDestinationCrash(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 29)
	dep := StartLocalWorkers(2, WorkerConfig{})
	assign := roundRobinAssignment(cfg, 2)
	setup := NewExecutor(dep.Conns, assign)
	if err := setup.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}

	// Worker 1's connection dies on the very next frame it is sent —
	// which, in the migrate ordering under test, must be the assign (the
	// snapshot goes to the source, worker 0).
	faulty := transport.NewFaulty(dep.Conns[1], 5, transport.FaultPlan{})
	faulty.ArmClose(0)
	exec := NewExecutor([]transport.Conn{dep.Conns[0], faulty}, assign)
	exec.SetBase(grid) // this executor did not Distribute

	err := exec.migrate(0, 0, 1)
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("migrate into crash = %v, want ErrClosed", err)
	}
	if got := exec.Assignment().Worker[0][0]; got != 0 {
		t.Fatalf("assignment moved to %d despite crashed destination", got)
	}
	// The crucial half of the regression: the expert was NOT destructively
	// fetched off its source — it still serves.
	out, ferr := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: tensor.Zeros(1, cfg.D)})
	if ferr != nil || out[0] == nil {
		t.Fatalf("expert lost by failed migrate: %v", ferr)
	}
	dep.Close()
	_ = dep.WaitAll()
}

// TestMigrateFromDeadWorkerFailsCleanly: migrating an expert whose host
// is already dead cannot work (its state is gone from the rotation —
// recovery is the supervisor's snapshot path, not Migrate); the attempt
// must fail fast with ErrWorkerDead and leave the assignment unchanged.
func TestMigrateFromDeadWorkerFailsCleanly(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	dep, exec := migrateSetup(t)
	exec.MarkDead(1)

	// Expert 1 of layer 0 lives on dead worker 1.
	if err := exec.migrate(0, 1, 0); !errors.Is(err, ErrWorkerDead) {
		t.Fatalf("migrate from dead worker = %v, want ErrWorkerDead", err)
	}
	if got := exec.Assignment().Worker[0][1]; got != 1 {
		t.Fatalf("assignment rewritten to %d despite failed migrate", got)
	}
	dep.Close()
	_ = dep.WaitAll()
}

// TestMigrateReleaseFailureIsSurfaced: the source dies between the
// install and the release. The move has taken effect — the assignment
// names the destination, which serves the expert — and the error says
// which leg failed instead of hanging or passing silently.
func TestMigrateReleaseFailureIsSurfaced(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 29)
	dep := StartLocalWorkers(2, WorkerConfig{})
	src := transport.NewFaulty(dep.Conns[1], 7, transport.FaultPlan{})
	exec := NewExecutor([]transport.Conn{dep.Conns[0], src}, roundRobinAssignment(cfg, 2))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	// Expert 1 of layer 0 lives on worker 1. Its snapshot request is the
	// next send on that connection; the release after it severs the link.
	src.ArmClose(1)
	err := exec.migrate(0, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "releasing the source copy") {
		t.Fatalf("migrate with a dying source = %v, want the release failure", err)
	}
	if got := exec.Assignment().Worker[0][1]; got != 0 {
		t.Fatalf("assignment names worker %d, want the destination 0", got)
	}
	out, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{1: tensor.Zeros(1, cfg.D)})
	if err != nil || out[1] == nil {
		t.Fatalf("destination must serve the migrated expert: %v", err)
	}
	dep.Close()
	_ = dep.WaitAll()
}
