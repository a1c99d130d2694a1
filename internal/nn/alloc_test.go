// The steady-state allocation bounds count heap allocations exactly, and
// the race detector's instrumentation adds its own — so these tests only
// run without -race. The companion parallel determinism test lives in
// parallel_nn_test.go and DOES run under -race.
//go:build !race

package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// steadyStateAllocs warms fn twice (first call installs the layer's
// persistent scratch, second confirms the arena classes are populated)
// and then measures allocations per run. Parallelism is pinned to one
// shard so the measurement sees only the layer math, not the closures
// nn's elementwise loops hand the team when they split.
func steadyStateAllocs(t *testing.T, fn func()) float64 {
	t.Helper()
	old := tensor.Parallelism()
	tensor.SetParallelism(1)
	t.Cleanup(func() { tensor.SetParallelism(old) })
	fn()
	fn()
	return testing.AllocsPerRun(50, fn)
}

// TestLinearSteadyStateAllocFree is the acceptance bound for the arena
// conversion: a warm Linear forward+backward must allocate at most 10%
// of the pre-engine 12 allocs/op (in practice zero — Ensure scratch plus
// arena temporaries cover every buffer).
func TestLinearSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", rng, 64, 64, true, true)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.Randn(rng, 1, 128, 64)
	allocs := steadyStateAllocs(t, func() {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	})
	if allocs > 1.2 {
		t.Errorf("Linear forward+backward allocates %.1f/op at steady state, want <= 1.2", allocs)
	}
}

// TestFrozenLinearSteadyStateAllocFree: a frozen-W Linear packs its
// panels during warm-up and then reads them, allocating nothing.
func TestFrozenLinearSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear("l", rng, 64, 64, true, false)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.Randn(rng, 1, 128, 64)
	allocs := steadyStateAllocs(t, func() {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	})
	if allocs != 0 {
		t.Errorf("frozen Linear forward+backward allocates %.1f/op at steady state, want 0", allocs)
	}
}

// TestLoRALinearSteadyStateAllocFree extends the bound to the LoRA path
// (pre-engine: 32 allocs/op).
func TestLoRALinearSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", rng, 64, 64, false, true)
	l.AttachLoRA(rng, 8, 16)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.Randn(rng, 1, 128, 64)
	allocs := steadyStateAllocs(t, func() {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	})
	if allocs != 0 {
		t.Errorf("LoRA Linear forward+backward allocates %.1f/op at steady state, want 0", allocs)
	}
}

// TestSwiGLUSteadyStateAllocFree is the acceptance bound for the FFN
// block: at most 10% of the pre-engine 43 allocs/op.
func TestSwiGLUSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSwiGLU("s", rng, 32, 64, true)
	x := tensor.Randn(rng, 1, 128, 32)
	dy := tensor.Randn(rng, 1, 128, 32)
	allocs := steadyStateAllocs(t, func() {
		_ = s.Forward(x)
		_ = s.Backward(dy)
	})
	if allocs != 0 {
		t.Errorf("SwiGLU forward+backward allocates %.1f/op at steady state, want 0", allocs)
	}
}
