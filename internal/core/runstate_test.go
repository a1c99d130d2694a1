package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

// resumeSystem builds one deterministic deployment for the resume tests:
// the full prelude (pretrain, LoRA attach, profile, deploy) is a pure
// function of its seeds, which is exactly what a resuming velamaster
// relies on.
func resumeSystem(t *testing.T) (*System, *trainer.Finetuner, *RunCapture) {
	t.Helper()
	m, grid, _ := buildCheckpoint(t)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
	trainer.PrepareForFinetune(m, grid, lora)
	corpus := data.Shakespeare(4000)
	stats, err := trainer.Profile(m, corpus, 4, 2, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(m, grid, Options{Topo: testTopology(), Stats: stats, LoRA: lora})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ft := sys.Finetuner(data.NewBatcher(corpus, 2, 16, 7))
	batcher := ft.Batcher.(*data.Batcher)
	cap := &RunCapture{
		Backbone: ft.Backbone,
		Opt:      ft.Opt.(*nn.AdamW),
		Exec:     sys.Exec,
		Cursor:   batcher.Cursor,
		Seek:     batcher.SeekTo,
		Losses:   &ft.Losses,
		Seeds:    []int64{7},
	}
	return sys, ft, cap
}

// TestRunCheckpointResumeBitIdentical is the tentpole invariant at
// package level: a run checkpointed mid-flight and resumed into a
// freshly rebuilt system produces exactly the loss trajectory of an
// uninterrupted run — AdamW moments, data cursor, and step counters
// included, with no replayed steps.
func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	const totalSteps, crashAfter = 8, 5

	// Reference: uninterrupted run.
	_, ref, _ := resumeSystem(t)
	if err := ref.Run(totalSteps, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint at the crashAfter-th completed step,
	// then abandon the system (the "SIGKILL").
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	_, ft1, cap1 := resumeSystem(t)
	ft1.OnStep = func(step int) error {
		if step+1 != crashAfter {
			return nil
		}
		rs, err := CaptureRun(step, cap1)
		if err != nil {
			return err
		}
		_, _, err = store.Save(rs)
		return err
	}
	if err := ft1.Run(crashAfter+1, nil); err != nil {
		t.Fatal(err)
	}

	// Resume: fresh deterministic prelude, then pour the checkpoint in.
	rs, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Step != crashAfter {
		t.Fatalf("checkpoint at step %d, want %d", rs.Step, crashAfter)
	}
	_, ft2, cap2 := resumeSystem(t)
	if err := RestoreRun(rs, cap2); err != nil {
		t.Fatal(err)
	}
	ft2.StartStep = rs.Step
	if ft2.Losses.Len() != crashAfter {
		t.Fatalf("restored %d losses, want %d", ft2.Losses.Len(), crashAfter)
	}
	if err := ft2.Run(totalSteps, nil); err != nil {
		t.Fatal(err)
	}

	if ft2.Losses.Len() != totalSteps {
		t.Fatalf("resumed run recorded %d losses, want %d", ft2.Losses.Len(), totalSteps)
	}
	if !testutil.BitEqualSlices(ref.Losses.Values, ft2.Losses.Values) {
		t.Fatalf("resumed trajectory diverged:\nref    = %v\nresume = %v",
			ref.Losses.Values, ft2.Losses.Values)
	}
}

// TestRestoreRunRejectsMismatchedModel: a checkpoint from a different
// architecture must fail loudly at restore, not corrupt parameters.
func TestRestoreRunRejectsMismatchedModel(t *testing.T) {
	_, _, cap := resumeSystem(t)
	bad := &checkpoint.RunState{
		Backbone: []checkpoint.NamedTensor{{Name: "no.such.param",
			StateTensor: checkpoint.StateTensor{Rows: 1, Cols: 1, Data: []float64{1}}}},
	}
	if err := RestoreRun(bad, cap); err == nil {
		t.Fatal("restore with wrong parameter count/names must fail")
	}
}

// TestRestoreRunRejectsWorkerOutsidePool: a generation written by a run
// with more workers than this one places an expert on worker 3 of a
// 2-worker pool — velamaster -resume with a shorter -workers list. The
// restore fails naming the expert and the worker instead of panicking.
func TestRestoreRunRejectsWorkerOutsidePool(t *testing.T) {
	spec := broker.ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	rng := rand.New(rand.NewSource(9))
	grid := [][]*moe.Expert{make([]*moe.Expert, 4)}
	assign := placement.NewAssignment(1, len(grid[0]))
	for e := range grid[0] {
		grid[0][e] = moe.NewExpert(moe.ExpertID{Expert: e}, rng, spec.D, spec.Hidden, false)
		grid[0][e].AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
		assign.Worker[0][e] = e % 2
	}
	dep := broker.StartLocalWorkers(2, broker.DefaultWorkerConfig())
	exec := broker.NewExecutor(dep.Conns, assign)
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	snap, err := exec.SnapshotExperts(0)
	if err != nil {
		t.Fatal(err)
	}
	rs := &checkpoint.RunState{Experts: snap, Assignment: [][]int{{0, 1, 0, 3}}}
	err = RestoreRun(rs, &RunCapture{Exec: exec})
	if err == nil || !strings.Contains(err.Error(), "expert L0/E3") || !strings.Contains(err.Error(), "worker 3") {
		t.Fatalf("err = %v, want one naming expert L0/E3 and worker 3", err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointerSkipsOffBoundarySteps: Every=3 writes only at
// completed-step multiples of 3.
func TestRunCheckpointerSkipsOffBoundarySteps(t *testing.T) {
	_, ft, cap := resumeSystem(t)
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	w := checkpoint.NewAsyncWriter(store, nil)
	ck := &RunCheckpointer{Every: 3, Cap: cap, W: w}
	ft.OnStep = ck.OnStep
	if err := ft.Run(7, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries at completed steps 3 and 6; the async writer may skip
	// one if the previous write is still in flight, but never writes off
	// a boundary.
	if len(gens) == 0 || len(gens) > 2 {
		t.Fatalf("generations = %v, want 1..2", gens)
	}
	rs, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Step%3 != 0 {
		t.Fatalf("checkpointed step %d is not a boundary multiple", rs.Step)
	}
}
