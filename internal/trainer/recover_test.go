package trainer

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/testutil"
)

var errBoom = errors.New("synthetic expert failure")

// recordingBatcher records every batch it serves, so a test can compare
// a retried step's batch with its first attempt's.
type recordingBatcher struct {
	*data.Batcher
	served [][]int
}

func (r *recordingBatcher) Next() ([]int, []int) {
	ids, targets := r.Batcher.Next()
	r.served = append(r.served, ids)
	return ids, targets
}

// recoverFinetuner builds a deterministic local finetuner for the
// recovery tests.
func recoverFinetuner(t *testing.T) *Finetuner {
	t.Helper()
	m, grid, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	PrepareForFinetune(m, grid, LoRAConfig{Rank: 2, Alpha: 4, Seed: 5})
	exec := m.Layers[0].MoE.Exec.(*moe.LocalExecutor)
	return NewLocalFinetuner(m, exec, data.NewBatcher(data.Shakespeare(4000), 2, 24, 9))
}

// TestRunRecoversOnSameBatch: a transient failure mid-run is handed to
// Recover, which rewinds the batch source to the last boundary; the
// re-driven step re-draws exactly the batch its first attempt drew, and
// the loss trajectory is identical to a failure-free run — the
// trainer-side half of the failover guarantee.
func TestRunRecoversOnSameBatch(t *testing.T) {
	clean := recoverFinetuner(t)
	if err := clean.Run(5, nil); err != nil {
		t.Fatal(err)
	}

	faulty := recoverFinetuner(t)
	rb := &recordingBatcher{Batcher: faulty.Batcher.(*data.Batcher)}
	faulty.Batcher = rb
	var boundary []int64
	faulty.OnStep = func(int) error { boundary = rb.Cursor(); return nil }
	realStep := faulty.ExpertStep
	fail := true
	faulty.ExpertStep = func() error {
		if fail && faulty.Losses.Len() == 2 { // first attempt of step 2
			fail = false
			return errBoom
		}
		return realStep()
	}
	recovered := 0
	faulty.Recover = func(step int, err error) error {
		if step != 2 || !errors.Is(err, errBoom) {
			t.Fatalf("Recover(step=%d, err=%v)", step, err)
		}
		recovered++
		return rb.SeekTo(boundary)
	}
	if err := faulty.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Fatalf("Recover called %d times, want 1", recovered)
	}
	if len(rb.served) != 6 {
		t.Fatalf("batcher served %d batches for 5 steps and one retry, want 6", len(rb.served))
	}
	if !slices.Equal(rb.served[2], rb.served[3]) {
		t.Fatal("the retried step trained another batch than its first attempt")
	}
	if clean.Losses.Len() != faulty.Losses.Len() {
		t.Fatalf("loss counts differ: %d vs %d", clean.Losses.Len(), faulty.Losses.Len())
	}
	for i := range clean.Losses.Values {
		if !testutil.Close(clean.Losses.Values[i], faulty.Losses.Values[i]) {
			t.Fatalf("step %d loss diverged after recovery: %v vs %v",
				i, clean.Losses.Values[i], faulty.Losses.Values[i])
		}
	}
}

// TestRunWithoutRecoverFailsFast: with no Recover hook the first failure
// aborts the run.
func TestRunWithoutRecoverFailsFast(t *testing.T) {
	ft := recoverFinetuner(t)
	ft.ExpertStep = func() error { return errBoom }
	err := ft.Run(3, nil)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if ft.Losses.Len() != 0 {
		t.Fatal("no loss may be recorded for a failed step")
	}
}

// TestRunExhaustsStepRetries: a fault that recovery cannot clear aborts
// after DefaultMaxStepRetries re-drives, not an unbounded loop.
func TestRunExhaustsStepRetries(t *testing.T) {
	ft := recoverFinetuner(t)
	attempts := 0
	ft.ExpertStep = func() error { attempts++; return errBoom }
	ft.Recover = func(step int, err error) error { return nil }
	err := ft.Run(2, nil)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	// Initial attempt + DefaultMaxStepRetries re-drives.
	if attempts != 1+DefaultMaxStepRetries {
		t.Fatalf("step driven %d times, want %d", attempts, 1+DefaultMaxStepRetries)
	}
}

// TestRunAbortsWhenRecoverFails: a recovery error surfaces both causes
// and stops the run immediately.
func TestRunAbortsWhenRecoverFails(t *testing.T) {
	ft := recoverFinetuner(t)
	ft.ExpertStep = func() error { return errBoom }
	errDead := errors.New("no snapshot")
	ft.Recover = func(step int, err error) error { return errDead }
	err := ft.Run(2, nil)
	if !errors.Is(err, errDead) {
		t.Fatalf("err = %v, want the recovery failure", err)
	}
	if !strings.Contains(err.Error(), errBoom.Error()) {
		t.Fatalf("recovery failure must cite the step failure, got %v", err)
	}
}

// TestOnStepErrorAborts: without Recover, a boundary's error stops the
// run after the step that triggered it.
func TestOnStepErrorAborts(t *testing.T) {
	ft := recoverFinetuner(t)
	errHook := errors.New("snapshot failed")
	ft.OnStep = func(step int) error {
		if step == 1 {
			return errHook
		}
		return nil
	}
	err := ft.Run(4, nil)
	if !errors.Is(err, errHook) {
		t.Fatalf("err = %v, want hook error", err)
	}
	if ft.Losses.Len() != 2 {
		t.Fatalf("recorded %d losses, want 2 (steps 0 and 1 succeeded)", ft.Losses.Len())
	}
}

// TestRunStopNeverRecovers: a boundary that asks for a stop (an OnStep
// error wrapping ErrStop, what velamaster returns after SIGINT) ends the
// run after that completed step: the hook sees the step once, its loss
// stays, and Recover is never consulted.
func TestRunStopNeverRecovers(t *testing.T) {
	ft := recoverFinetuner(t)
	errSignal := fmt.Errorf("stopped by signal: %w", ErrStop)
	ft.OnStep = func(step int) error {
		if step == 1 {
			return errSignal
		}
		return nil
	}
	ft.Recover = func(step int, err error) error {
		t.Fatalf("a stop was recovered: Recover(%d, %v)", step, err)
		return nil
	}
	var hooked []int
	err := ft.Run(4, func(step int, _ float64) { hooked = append(hooked, step) })
	if !errors.Is(err, errSignal) {
		t.Fatalf("err = %v, want the stop", err)
	}
	if !slices.Equal(hooked, []int{0, 1}) || ft.Losses.Len() != 2 {
		t.Fatalf("hook saw steps %v and %d losses were recorded, want [0 1] and 2", hooked, ft.Losses.Len())
	}
}
