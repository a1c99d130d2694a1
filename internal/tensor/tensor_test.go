package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func almostEqual(a, b, eps float64) bool {
	return testutil.AlmostEqual(a, b, eps)
}

func TestNewAndShape(t *testing.T) {
	x := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.Rows() != 2 || x.Cols() != 3 || x.Len() != 6 || x.Dims() != 2 {
		t.Fatalf("unexpected shape: %v", x.Shape())
	}
	if !testutil.Close(x.At(1, 2), 6) {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	x.Set(9, 0, 1)
	if !testutil.Close(x.At(0, 1), 9) {
		t.Fatalf("Set/At roundtrip failed")
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	New([]float64{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := Zeros(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestRowIsView(t *testing.T) {
	x := Zeros(3, 4)
	r := x.Row(1)
	r[2] = 7
	if !testutil.Close(x.At(1, 2), 7) {
		t.Fatal("Row must return a view into the tensor data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := Full(2, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if !testutil.Close(x.Data[0], 2) {
		t.Fatal("Clone must not share data")
	}
}

// TestReshapeSharesData: a tensor made by New over another's Data is a
// view of it in the new shape — the sharing the GEMM no-alias check
// catches — and New rejects a shape of another element count.
func TestReshapeSharesData(t *testing.T) {
	x := New([]float64{1, 2, 3, 4}, 2, 2)
	y := New(x.Data, 4)
	y.Data[3] = 9
	if !testutil.Close(x.At(1, 1), 9) {
		t.Fatal("a view must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid reshape")
		}
	}()
	New(x.Data, 3)
}

func TestElementwiseOps(t *testing.T) {
	a := New([]float64{1, 2, 3, 4}, 2, 2)
	b := New([]float64{5, 6, 7, 8}, 2, 2)
	c := a.Clone()
	c.AddInPlace(b)
	if !testutil.Close(c.Data[0], 6) || !testutil.Close(c.Data[3], 12) {
		t.Fatalf("AddInPlace wrong: %v", c.Data)
	}
	e := a.Clone()
	e.ScaleInPlace(3)
	if !testutil.Close(e.Data[3], 12) {
		t.Fatalf("ScaleInPlace wrong: %v", e.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := Zeros(2, 2)
	b := Zeros(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	a.AddInPlace(b)
}

func TestMatMul(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := GEMM(Full(-1, 2, 2), a, b, false, false, 1, false, nil)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !testutil.Close(c.Data[i], w) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 6)
	b := Randn(rng, 1, 6, 5)
	ref := mm(a, b, false, false)
	at, bt := New(transpose(a), 6, 4), New(transpose(b), 5, 6)
	for _, c := range []struct {
		name string
		got  *Tensor
	}{
		{"a·(bᵀ)ᵀ", mm(a, bt, false, true)},
		{"(aᵀ)ᵀ·b", mm(at, b, true, false)},
		{"(aᵀ)ᵀ·(bᵀ)ᵀ", mm(at, bt, true, true)},
	} {
		for i := range ref.Data {
			if !almostEqual(ref.Data[i], c.got.Data[i], 1e-12) {
				t.Fatalf("%s disagrees at %d: %v vs %v", c.name, i, c.got.Data[i], ref.Data[i])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dimension mismatch")
		}
	}()
	mm(a, b, false, false)
}

// transpose returns the elements of the 2-D x transposed, row-major.
func transpose(x *Tensor) []float64 {
	n, m := x.shape[0], x.shape[1]
	r := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			r[j*n+i] = x.Data[i*m+j]
		}
	}
	return r
}

// TestTransposeInvolution: a product reading its operand transposed,
// against the identity, is that operand's transpose exactly — every chain
// sums one nonzero product and exact zeros — and doing it twice gives the
// operand back.
func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 3, 5)
	eye := func(n int) *Tensor {
		e := Zeros(n, n)
		for i := 0; i < n; i++ {
			e.Data[i*n+i] = 1
		}
		return e
	}
	at := mm(a, eye(3), true, false)
	if !testutil.BitEqualSlices(transpose(a), at.Data) {
		t.Fatal("aᵀ·I must be aᵀ")
	}
	b := mm(eye(3), at, false, true)
	for i := range a.Data {
		if !testutil.BitEqual(a.Data[i], b.Data[i]) {
			t.Fatal("transpose twice must be identity")
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := New([]float64{0, 0, 1000, 1000, -1000, 0}, 3, 2)
	s := x.SoftmaxRows()
	for i := 0; i < 3; i++ {
		row := s.Row(i)
		sum := row[0] + row[1]
		if !almostEqual(sum, 1, 1e-12) {
			t.Fatalf("row %d does not sum to 1: %v", i, sum)
		}
	}
	if !almostEqual(s.At(0, 0), 0.5, 1e-12) {
		t.Fatalf("uniform logits must give 0.5, got %v", s.At(0, 0))
	}
	if s.At(2, 1) < 0.999 {
		t.Fatalf("large gap must saturate softmax, got %v", s.At(2, 1))
	}
}

func TestSoftmaxPropertySumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Clamp to a sane range; softmax is shift-invariant anyway.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 50)
		}
		src := []float64{clamp(a), clamp(b), clamp(c)}
		dst := make([]float64, 3)
		SoftmaxInto(dst, src)
		sum := dst[0] + dst[1] + dst[2]
		if !almostEqual(sum, 1, 1e-9) {
			return false
		}
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReductions: SumRowsInto, the bias-gradient reduction, adds each
// column's sum into its destination.
func TestReductions(t *testing.T) {
	x := New([]float64{3, -4, 0, 1, 2.5, -1}, 2, 3)
	dst := New([]float64{1, 0, -1}, 3)
	x.SumRowsInto(dst)
	if want := []float64{5, -1.5, -2}; !testutil.BitEqualSlices(dst.Data, want) {
		t.Fatalf("SumRowsInto = %v, want %v", dst.Data, want)
	}
}

func TestArgTopK(t *testing.T) {
	v := []float64{0.1, 0.5, 0.3, 0.5, 0.0}
	got := argTopK(v, 3)
	// Ties broken by lower index: 1 before 3.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
}

func TestArgTopKFull(t *testing.T) {
	v := []float64{2, 1, 3}
	got := argTopK(v, 3)
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
}

func TestArgTopKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > len")
		}
	}()
	argTopK([]float64{1}, 2)
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(7)), 0.5, 10)
	b := Randn(rand.New(rand.NewSource(7)), 0.5, 10)
	for i := range a.Data {
		if !testutil.BitEqual(a.Data[i], b.Data[i]) {
			t.Fatal("Randn must be deterministic for a fixed seed")
		}
	}
}

func TestZeroAndFill(t *testing.T) {
	x := Full(3, 2, 2)
	x.Zero()
	if !testutil.BitEqualSlices(x.Data, []float64{0, 0, 0, 0}) {
		t.Fatal("Zero failed")
	}
	x = Full(1.5, 2, 2)
	if !testutil.BitEqualSlices(x.Data, []float64{1.5, 1.5, 1.5, 1.5}) {
		t.Fatal("Full failed")
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (A+B)C == AC + BC for random matrices.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 3, 4)
		c := Randn(rng, 1, 4, 2)
		lhs := mm(a.Clone().AddInPlace(b), c, false, false)
		rhs := mm(a, c, false, false).AddInPlace(mm(b, c, false, false))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-10) {
				t.Fatalf("linearity violated at %d", i)
			}
		}
	}
}
