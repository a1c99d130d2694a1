package tensor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

// assertBits fails the test unless got matches want bit for bit.
func assertBits(t *testing.T, op string, want, got []float64) {
	t.Helper()
	if !testutil.BitEqualSlices(want, got) {
		t.Fatalf("%s: parallel result is not bit-identical to serial", op)
	}
}

// forceParallel pins the engine to a given shard count with a threshold
// of 1 (every kernel takes the parallel path) and restores the defaults
// when the test ends.
func forceParallel(t *testing.T, degree int) {
	t.Helper()
	SetParallelism(degree)
	SetParallelThreshold(1)
	t.Cleanup(func() {
		SetParallelism(0)
		SetParallelThreshold(0)
	})
}

// sparsify zeroes roughly half of t's elements so the GEMM kernels' exact-
// zero skip path runs.
func sparsify(rng *rand.Rand, t *Tensor) {
	for i := range t.Data {
		if rng.Intn(2) == 0 {
			t.Data[i] = 0
		}
	}
}

// TestParallelKernelsBitIdentical is the determinism guarantee of
// DESIGN.md §11: because every output row has exactly one owner and the
// inner-loop order is unchanged, parallel kernels must match serial ones
// bit for bit — on tall, wide and square shapes, and with a zero-sparse
// operand driving the skip fast path.
func TestParallelKernelsBitIdentical(t *testing.T) {
	shapes := []struct {
		name    string
		n, k, m int
		sparse  bool
	}{
		{"tall", 257, 33, 17, false},
		{"wide", 17, 33, 257, false},
		{"square", 64, 64, 64, false},
		{"square/zero-sparse", 64, 64, 64, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			a := Randn(rng, 1, sh.n, sh.k) // for MatMul: [n,k]@[k,m]
			bm := Randn(rng, 1, sh.k, sh.m)
			at := Randn(rng, 1, sh.m, sh.k) // for MatMulT: [n,k]@[m,k]ᵀ
			ta := Randn(rng, 1, sh.k, sh.n) // for TMatMul: [k,n]ᵀ@[k,m]
			if sh.sparse {
				sparsify(rng, a)
				sparsify(rng, ta)
			}

			SetParallelism(1)
			SetParallelThreshold(1)
			t.Cleanup(func() {
				SetParallelism(0)
				SetParallelThreshold(0)
			})
			wantMM := a.MatMul(bm)
			wantMT := a.MatMulT(at)
			wantTM := ta.TMatMul(bm)
			wantTr := a.Transpose()
			wantSM := a.SoftmaxRows()

			for _, degree := range []int{2, 3, 8} {
				SetParallelism(degree)
				assertBits(t, "MatMul", wantMM.Data, a.MatMul(bm).Data)
				assertBits(t, "MatMulT", wantMT.Data, a.MatMulT(at).Data)
				assertBits(t, "TMatMul", wantTM.Data, ta.TMatMul(bm).Data)
				assertBits(t, "Transpose", wantTr.Data, a.Transpose().Data)
				assertBits(t, "SoftmaxRows", wantSM.Data, a.SoftmaxRows().Data)
			}
		})
	}
}

// TestParallelElementwiseBitIdentical covers the sharded elementwise and
// row ops.
func TestParallelElementwiseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := Randn(rng, 1, 37, 53)
	y := Randn(rng, 1, 37, 53)
	row := Randn(rng, 1, 53)

	SetParallelism(1)
	SetParallelThreshold(1)
	t.Cleanup(func() {
		SetParallelism(0)
		SetParallelThreshold(0)
	})
	wantAdd := x.Add(y)
	wantScale := x.Scale(1.7)
	wantAxpy := x.Clone().AxpyInPlace(0.3, y)
	wantRow := x.Clone().AddRowInPlace(row)

	SetParallelism(5)
	assertBits(t, "Add", wantAdd.Data, x.Add(y).Data)
	assertBits(t, "Scale", wantScale.Data, x.Scale(1.7).Data)
	assertBits(t, "AxpyInPlace", wantAxpy.Data, x.Clone().AxpyInPlace(0.3, y).Data)
	assertBits(t, "AddRowInPlace", wantRow.Data, x.Clone().AddRowInPlace(row).Data)
}

// TestIntoVariantsMatchAllocating pins that the destination-passing
// kernels fully overwrite a dirty destination and agree with the
// allocating wrappers.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 13, 21)
	o := Randn(rng, 1, 21, 9)
	ot := Randn(rng, 1, 9, 21)
	ta := Randn(rng, 1, 21, 13)

	dirty := func(shape ...int) *Tensor { return Full(999, shape...) }

	assertBits(t, "MatMulInto", a.MatMul(o).Data, a.MatMulInto(o, dirty(13, 9)).Data)
	assertBits(t, "MatMulTInto", a.MatMulT(ot).Data, a.MatMulTInto(ot, dirty(13, 9)).Data)
	assertBits(t, "TMatMulInto", ta.TMatMul(o).Data, ta.TMatMulInto(o, dirty(13, 9)).Data)
	assertBits(t, "TransposeInto", a.Transpose().Data, a.TransposeInto(dirty(21, 13)).Data)
	assertBits(t, "AddInto", a.Add(a).Data, a.AddInto(a, dirty(13, 21)).Data)
	assertBits(t, "ScaleInto", a.Scale(0.25).Data, a.ScaleInto(0.25, dirty(13, 21)).Data)
	assertBits(t, "SoftmaxRowsInto", a.SoftmaxRows().Data, a.SoftmaxRowsInto(dirty(13, 21)).Data)

	// SoftmaxRowsInto and the elementwise Intos allow aliasing.
	alias := a.Clone()
	assertBits(t, "SoftmaxRowsInto-alias", a.SoftmaxRows().Data, alias.SoftmaxRowsInto(alias).Data)
}

// TestIntoAliasPanics pins the no-alias precondition of the GEMM and
// transpose destinations.
func TestIntoAliasPanics(t *testing.T) {
	a := Full(1, 8, 8)
	o := Full(2, 8, 8)
	cases := []struct {
		name string
		fn   func()
	}{
		{"matmul-dst-is-lhs", func() { a.MatMulInto(o, a) }},
		{"matmul-dst-is-rhs", func() { a.MatMulInto(o, o) }},
		{"matmulT-dst", func() { a.MatMulTInto(o, a) }},
		{"tmatmul-dst", func() { a.TMatMulInto(o, a) }},
		{"transpose-dst", func() { a.TransposeInto(a) }},
		{"reshape-view-dst", func() { a.MatMulInto(o, a.Reshape(8, 8)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("aliasing destination did not panic")
				}
			}()
			c.fn()
		})
	}
}

// TestParallelKernelsConcurrent drives the worker pool from many
// goroutines at once (run under -race in CI): concurrent kernels on
// shared read-only operands must neither race nor diverge.
func TestParallelKernelsConcurrent(t *testing.T) {
	forceParallel(t, 4)
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 48, 32)
	o := Randn(rng, 1, 32, 24)
	want := a.MatMul(o)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := a.MatMulInto(o, GetDirty(48, 24))
				if !testutil.BitEqualSlices(want.Data, got.Data) {
					t.Errorf("concurrent MatMul diverged from serial result")
					return
				}
				Put(got)
			}
		}()
	}
	wg.Wait()
}

// TestSetParallelism pins the degree plumbing: explicit degrees read
// back, and <=0 restores the GOMAXPROCS default.
func TestSetParallelism(t *testing.T) {
	t.Cleanup(func() { SetParallelism(0) })
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d, want >= 1", got)
	}
	SetParallelThreshold(123)
	if got := ParallelThreshold(); got != 123 {
		t.Fatalf("ParallelThreshold() = %d, want 123", got)
	}
	SetParallelThreshold(0)
	if got := ParallelThreshold(); got != DefaultParallelThreshold {
		t.Fatalf("ParallelThreshold() = %d, want default %d", got, DefaultParallelThreshold)
	}
}

// TestFanoutRunsEveryIndexOnce: at every degree (below, at and above the
// job count) each index runs exactly once, at most `degree` at a time,
// and every helper has returned by the time Fanout does.
func TestFanoutRunsEveryIndexOnce(t *testing.T) {
	t.Cleanup(func() { SetParallelism(0) })
	for _, degree := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 16} {
			SetParallelism(degree)
			ran := make([]atomic.Int32, n)
			var running, peak atomic.Int32
			Fanout(n, func(i int) {
				if r := running.Add(1); r > peak.Load() {
					peak.Store(r) // a lower bound on the true peak is all the check needs
				}
				ran[i].Add(1)
				running.Add(-1)
			})
			if got := running.Load(); got != 0 {
				t.Fatalf("degree %d, n %d: %d jobs still running after Fanout returned", degree, n, got)
			}
			if got := int(peak.Load()); got > degree {
				t.Fatalf("degree %d, n %d: %d jobs ran at once", degree, n, got)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("degree %d, n %d: index %d ran %d times", degree, n, i, got)
				}
			}
		}
	}
}

// TestFanoutReraisesPanicOnCaller: a panic in any job — on a helper or on
// the caller's own share — surfaces on the caller with its value intact,
// after the helpers have been joined.
func TestFanoutReraisesPanicOnCaller(t *testing.T) {
	t.Cleanup(func() { SetParallelism(0) })
	for _, degree := range []int{1, 2, 8} {
		SetParallelism(degree)
		var running atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Fanout(64, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 3 {
					panic("job 3")
				}
			})
			return nil
		}()
		if got != "job 3" {
			t.Fatalf("degree %d: recovered %v, want the job's own panic value", degree, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("degree %d: %d jobs still running when the panic reached the caller", degree, n)
		}
	}
}

// TestFanoutJobsMayCallParallelKernels: the no-nesting rule covers Fanout
// itself, not the kernels — a job that splits a product across the pool
// gets the serial bits.
func TestFanoutJobsMayCallParallelKernels(t *testing.T) {
	forceParallel(t, 1)
	rng := rand.New(rand.NewSource(3))
	a, b := Randn(rng, 1, 64, 48), Randn(rng, 1, 40, 48)
	want := a.MatMulT(b)
	SetParallelism(3)
	got := make([]*Tensor, 12)
	Fanout(len(got), func(i int) { got[i] = a.MatMulT(b) })
	for _, g := range got {
		assertBits(t, "MatMulT inside Fanout", want.Data, g.Data)
	}
}
