package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// mkParam builds a trainable parameter with deterministic values and a
// fixed gradient pattern.
func mkParam(t *testing.T, name string, seed int64, n int) *Param {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := newParam(name, tensor.Randn(rng, 1, n), true)
	for i := range p.Grad.Data {
		p.Grad.Data[i] = rng.NormFloat64()
	}
	return p
}

// TestAdamWRebindPreservesMoments: after rebinding to a parameter set
// that drops one parameter and adds another, the surviving parameter's
// trajectory must be identical to an optimizer that never saw the
// change — moments and step count carry over.
func TestAdamWRebindPreservesMoments(t *testing.T) {
	survivor := mkParam(t, "survivor", 1, 8)
	departing := mkParam(t, "departing", 2, 8)
	// The control tracks an identical copy of the survivor.
	control := mkParam(t, "survivor", 1, 8)

	opt := NewAdamW([]*Param{survivor, departing}, PaperAdamWConfig())
	ref := NewAdamW([]*Param{control}, PaperAdamWConfig())

	opt.Step()
	ref.Step()

	// Drop `departing`, add a newcomer — the broker does exactly this
	// when an expert migrates off/onto a worker.
	newcomer := mkParam(t, "newcomer", 3, 4)
	opt.Rebind([]*Param{survivor, newcomer})
	gone := append([]float64(nil), departing.Value.Data...)

	opt.Step()
	ref.Step()

	if !testutil.BitEqualSlices(gone, departing.Value.Data) {
		t.Fatal("dropped parameter still updated after rebind")
	}

	for i := range survivor.Value.Data {
		if !testutil.BitEqual(survivor.Value.Data[i], control.Value.Data[i]) {
			t.Fatalf("survivor diverged after rebind at %d: %.18g vs %.18g",
				i, survivor.Value.Data[i], control.Value.Data[i])
		}
	}
	// The newcomer must have been updated too (fresh zero moments).
	moved := false
	rng := rand.New(rand.NewSource(3))
	fresh := tensor.Randn(rng, 1, 4)
	for i := range newcomer.Value.Data {
		if !testutil.BitEqual(newcomer.Value.Data[i], fresh.Data[i]) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("newcomer not updated after rebind")
	}
}

// TestAdamWRebindIgnoresFrozenParams: Rebind must collect only trainable
// parameters, like NewAdamW does.
func TestAdamWRebindIgnoresFrozenParams(t *testing.T) {
	p := mkParam(t, "p", 4, 4)
	frozen := mkParam(t, "frozen", 5, 4)
	frozen.Trainable = false
	before := append([]float64(nil), frozen.Value.Data...)

	opt := NewAdamW([]*Param{p}, PaperAdamWConfig())
	opt.Rebind([]*Param{p, frozen})
	opt.Step()

	for i, v := range frozen.Value.Data {
		if !testutil.BitEqual(v, before[i]) {
			t.Fatal("frozen parameter updated after rebind")
		}
	}
}

// TestAdamWMomentsExportImport: Moments/SetMoments/StepCount round-trip
// the optimizer state — an optimizer rebuilt from exported state steps
// bit-identically to the original. This is the primitive run-level
// checkpoints (and VELAEXS2 expert snapshots) are built on.
func TestAdamWMomentsExportImport(t *testing.T) {
	p1 := mkParam(t, "p", 5, 6)
	p2 := mkParam(t, "p", 5, 6) // identical twin
	opt1 := NewAdamW([]*Param{p1}, PaperAdamWConfig())
	opt2 := NewAdamW([]*Param{p2}, PaperAdamWConfig())

	opt1.Step()
	if opt1.StepCount() != 1 {
		t.Fatalf("StepCount = %d, want 1", opt1.StepCount())
	}
	m, v := opt1.Moments(p1)
	if m == nil || v == nil {
		t.Fatal("Moments must return the tracked tensors")
	}
	if unknown := mkParam(t, "x", 9, 6); func() bool { um, _ := opt1.Moments(unknown); return um != nil }() {
		t.Fatal("Moments of an untracked parameter must be nil")
	}

	// Transplant value + moments + clock onto the twin.
	copy(p2.Value.Data, p1.Value.Data)
	if !opt2.SetMoments(p2, m.Data, v.Data) {
		t.Fatal("SetMoments must accept the tracked parameter")
	}
	opt2.SetStepCount(opt1.StepCount())
	if opt2.SetMoments(p1, m.Data, v.Data) {
		t.Fatal("SetMoments must reject an untracked parameter")
	}
	if opt2.SetMoments(p2, m.Data[:2], v.Data) {
		t.Fatal("SetMoments must reject a length mismatch")
	}

	// Identical gradients → bit-identical next step.
	for i := range p1.Grad.Data {
		p1.Grad.Data[i] = 0.125
		p2.Grad.Data[i] = 0.125
	}
	opt1.Step()
	opt2.Step()
	if !testutil.BitEqualSlices(p1.Value.Data, p2.Value.Data) {
		t.Fatal("transplanted optimizer diverged from the original")
	}
}
