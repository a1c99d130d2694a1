package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/testutil"
)

// ---- the oracle: the contract's chain written out ----
//
// Each element is s = math.FMA(a, b, s) from s = +0 with p ascending — the
// scalar loop of gemm.go's contract — in the loop order of the scalar row
// kernels the tile replaced, which leaves every element's chain as it is.
// No zero in A is skipped: under a fused chain that would not be
// bit-neutral (see gemm.go).

// matMulRows computes r[i,:] = a[i,:] @ b for i in [lo, hi);
// a is [n,k], b is [k,m], r is [n,m]. Inner order i-p-j.
func matMulRows(r, a, b []float64, lo, hi, k, m int) {
	for i := lo; i < hi; i++ {
		ri := r[i*m : (i+1)*m]
		clear(ri)
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			v, bp := ai[p], b[p*m:(p+1)*m]
			for j := range ri {
				ri[j] = math.FMA(v, bp[j], ri[j])
			}
		}
	}
}

// matMulTRows computes r[i,:] = a[i,:] @ bᵀ for i in [lo, hi);
// a is [n,k], b is [m,k], r is [n,m].
func matMulTRows(r, a, b []float64, lo, hi, k, m int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ri := r[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			bj := b[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s = math.FMA(ai[p], bj[p], s)
			}
			ri[j] = s
		}
	}
}

// tMatMulRows computes r[i,:] = (aᵀ @ b)[i,:] for i in [lo, hi);
// a is [k,n], b is [k,m], r is [n,m]. p-outer order.
func tMatMulRows(r, a, b []float64, lo, hi, k, n, m int) {
	for i := lo; i < hi; i++ {
		clear(r[i*m : (i+1)*m])
	}
	for p := 0; p < k; p++ {
		ap := a[p*n : (p+1)*n]
		bp := b[p*m : (p+1)*m]
		for i := lo; i < hi; i++ {
			v, ri := ap[i], r[i*m:(i+1)*m]
			for j := range ri {
				ri[j] = math.FMA(v, bp[j], ri[j])
			}
		}
	}
}

// gemmFill is one way to fill the operands of a case.
type gemmFill struct {
	name string
	fill func(rng *rand.Rand, t *Tensor)
}

var gemmFills = []gemmFill{
	{"dense", func(rng *rand.Rand, t *Tensor) {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64()
		}
	}},
	// Half the elements exactly zero: the kernels the tile replaced
	// skipped them; the tile and the oracle multiply them.
	{"zero-sparse", func(rng *rand.Rand, t *Tensor) {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64()
		}
		sparsify(rng, t)
	}},
	// ±0, denormals and values whose products underflow into them — and
	// below them, so a chain can round to −0.
	{"signed-zero-denormal", func(rng *rand.Rand, t *Tensor) {
		vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-160, -1e-160, 1, -1}
		for i := range t.Data {
			t.Data[i] = vals[rng.Intn(len(vals))]
		}
	}},
}

// forEachTile runs f once with each tile body this CPU can run selected,
// and selects the init-time body again afterwards.
func forEachTile(f func(body tileBody)) {
	defer func(old tileBody) { tile = old }(tile)
	for _, body := range tileBodies() {
		tile = body
		f(body)
	}
}

// TestTileBodiesFollowCPUFlags: the assembly bodies are fused
// multiply-add chains, so the AVX2 body is offered only when the CPU has
// FMA3 as well, and the AVX-512 body only when cpu.HasAVX512 is set
// (which implies both). The portable body is always there.
func TestTileBodiesFollowCPUFlags(t *testing.T) {
	bodies := tileBodies()
	want := []bool{true, cpu.HasAVX2 && cpu.HasFMA, cpu.HasAVX512}
	for body, ok := range want {
		if slices.Contains(bodies, tileBody(body)) != ok {
			t.Errorf("bodies %v: %s offered = %v, want %v (AVX2=%v FMA=%v AVX512=%v)",
				bodies, tileBody(body), !ok, ok, cpu.HasAVX2, cpu.HasFMA, cpu.HasAVX512)
		}
	}
	if tile != slices.Max(bodies) {
		t.Errorf("selected body %s, want the widest offered, %s", tile, slices.Max(bodies))
	}
}

// checkGEMM compares the three entry points against the oracle on one
// shape and fill, with every tile body the CPU can run, at each of the
// given parallel degrees. Callers forceParallel first, so every kernel
// that can split does, and the engine's defaults come back when the test
// ends.
func checkGEMM(t *testing.T, n, k, m int, f gemmFill, degrees ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
	a, b := Zeros(n, k), Zeros(k, m)   // MatMul:  [n,k] @ [k,m]
	bt, at := Zeros(m, k), Zeros(k, n) // MatMulT: [n,k] @ [m,k]ᵀ; TMatMul: [k,n]ᵀ @ [k,m]
	for _, x := range []*Tensor{a, b, bt, at} {
		f.fill(rng, x)
	}
	wantMM, wantMT, wantTM := make([]float64, n*m), make([]float64, n*m), make([]float64, n*m)
	matMulRows(wantMM, a.Data, b.Data, 0, n, k, m)
	matMulTRows(wantMT, a.Data, bt.Data, 0, n, k, m)
	tMatMulRows(wantTM, at.Data, b.Data, 0, n, k, n, m)

	got := Zeros(n, m)
	forEachTile(func(body tileBody) {
		for _, degree := range degrees {
			SetParallelism(degree)
			for _, c := range []struct {
				op   string
				want []float64
				run  func()
			}{
				{"MatMul", wantMM, func() { a.MatMulInto(b, got) }},
				{"MatMulT", wantMT, func() { a.MatMulTInto(bt, got) }},
				{"TMatMul", wantTM, func() { at.TMatMulInto(b, got) }},
			} {
				got.Fill(math.NaN()) // a dirty destination
				c.run()
				if !testutil.BitEqualSlices(c.want, got.Data) {
					t.Errorf("%s %dx%dx%d %s, %s body at degree %d: not bit-identical to the oracle", c.op, n, k, m, f.name, body, degree)
				}
			}
		}
	})
}

// benchShapes are the GEMMs one step of the step benchmark runs at its
// compute geometry (d=128, h=352, r=8, 32-token sequences, 32-row expert
// batches) — and a ragged 30-row batch, the case whose scalar remainder
// loop made a first prototype slower than the kernels it replaced.
var benchShapes = [][3]int{
	{32, 128, 352}, {32, 352, 128}, {30, 128, 352}, {128, 128, 128}, {32, 32, 32}, {128, 128, 8}, {32, 8, 352},
}

// pairingShapes exercise gemmPanels' panel pairing: even and odd counts of
// full panels, each with and without a ragged last panel; fewer rows than
// a tile and the empty sum; and m = 136 (17 panels), which at degree 2
// splits into shards of three, so shards start at odd panels 3, 9 and 15
// and pair from there.
var pairingShapes = [][3]int{
	{4, 16, 16}, {5, 33, 24}, {9, 7, 32}, {4, 64, 40}, {6, 5, 48},
	{5, 33, 17}, {9, 7, 23}, {4, 64, 31}, {6, 5, 47}, {4, 9, 33},
	{1, 16, 16}, {3, 5, 24}, {2, 64, 31},
	{4, 0, 16}, {3, 0, 24},
	{5, 19, 136},
}

// TestGEMMBitIdenticalToOracle is the kernel contract's proof: every
// entry point, on every tile-edge combination, on both sides of every
// partition boundary, with every tile body the CPU can run, produces the
// bits of the oracle's math.FMA chains. On an AVX-512 machine that is all
// three bodies; -tags purego leaves the portable one.
func TestGEMMBitIdenticalToOracle(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 65}
	if testing.Short() || raceEnabled {
		dims = []int{1, 3, 4, 5, 8, 9, 17, 33}
	}
	forceParallel(t, 1)
	for _, f := range gemmFills {
		for _, n := range dims {
			for _, k := range dims {
				for _, m := range dims {
					checkGEMM(t, n, k, m, f, 1, 2, 3, 8)
				}
			}
		}
		for _, s := range benchShapes {
			checkGEMM(t, s[0], s[1], s[2], f, 1, 2, 3, 8)
		}
		for _, s := range pairingShapes {
			checkGEMM(t, s[0], s[1], s[2], f, 1, 2, 3)
		}
		// MatMulT packs each B panel from eight rows of its operand
		// (packPanelT): the padded n < 4 driver, one and several row
		// tiles, single-column, ragged and full panels, and k from the
		// empty sum up to the expert hidden width.
		for _, n := range []int{1, 3, 4, 5, 32} {
			for _, k := range []int{0, 1, 8, 352} {
				for _, m := range []int{1, 7, 8, 9, 128} {
					checkGEMM(t, n, k, m, f, 1, 2, 3)
				}
			}
		}
	}
}

// TestGEMMPaperGeometryBitIdentical covers the shapes where the B panel
// no longer fits a cache level: the paper's up and down projections and
// the LoRA gradient that reads A transposed with a 1024-element stride.
func TestGEMMPaperGeometryBitIdentical(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("three paper-geometry products through the scalar oracle")
	}
	forceParallel(t, 1)
	for _, s := range [][3]int{{128, 1024, 2816}, {128, 2816, 1024}, {1024, 128, 8}} {
		checkGEMM(t, s[0], s[1], s[2], gemmFills[0], 1, 3)
	}
}

// TestGEMMEmptyDimensions pins the degenerate shapes: no rows or columns
// writes nothing, and an empty sum is +0.
func TestGEMMEmptyDimensions(t *testing.T) {
	got := Zeros(3, 0).MatMulInto(Zeros(0, 5), Full(7, 3, 5))
	for _, v := range got.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("k=0 product has element %v, want +0", v)
		}
	}
	got = Zeros(3, 0).MatMulTInto(Zeros(5, 0), Full(7, 3, 5))
	for _, v := range got.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("k=0 MatMulT has element %v, want +0", v)
		}
	}
	Zeros(0, 4).MatMulInto(Zeros(4, 5), Zeros(0, 5))
	Zeros(4, 0).TMatMulInto(Zeros(4, 5), Zeros(0, 5))
	Zeros(3, 4).MatMulTInto(Zeros(0, 4), Zeros(3, 0))
}

// TestGEMMZeroNoLongerHidesNonFinite pins the one behavioural difference
// from the kernels gemm replaced: they skipped a zero in A, so 0·Inf
// never happened; the tile multiplies it and gets IEEE 754's NaN — in a
// single panel and in both panels of a pair.
func TestGEMMZeroNoLongerHidesNonFinite(t *testing.T) {
	a := New([]float64{0, 1, 0, 1, 0, 1, 0, 1}, 4, 2)
	forEachTile(func(body tileBody) {
		for _, m := range []int{1, 2 * tileCols} {
			b := Zeros(2, m)
			for j := 0; j < m; j++ {
				b.Data[j], b.Data[m+j] = math.Inf(1), 2
			}
			for i, v := range a.MatMul(b).Data {
				if !math.IsNaN(v) {
					t.Errorf("%s body, m=%d: element %d is 0·Inf + 1·2 = %v, want NaN", body, m, i, v)
				}
			}
		}
	})
}

// TestGEMMPairingInvisible: the same products with pairing on and off,
// packing per call and from Panels, agree bit for bit on every body.
func TestGEMMPairingInvisible(t *testing.T) {
	forceParallel(t, 1)
	defer func() { pairPanels = true }()
	forEachTile(func(body tileBody) {
		for _, s := range pairingShapes {
			n, k, m := s[0], s[1], s[2]
			rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
			a, b, bt := Randn(rng, 1, n, k), Randn(rng, 1, k, m), Randn(rng, 1, m, k)
			for _, degree := range []int{1, 2} {
				SetParallelism(degree)
				var got [2][4][]float64
				for i, pair := range []bool{false, true} {
					pairPanels = pair
					var pk, pkT Panels
					got[i] = [4][]float64{
						a.MatMul(b).Data, a.MatMulT(bt).Data,
						a.MatMulPackedInto(b, &pk, Zeros(n, m)).Data, a.MatMulTPackedInto(bt, &pkT, Zeros(n, m)).Data,
					}
				}
				for op, name := range []string{"MatMul", "MatMulT", "MatMulPacked", "MatMulTPacked"} {
					if !testutil.BitEqualSlices(got[0][op], got[1][op]) {
						t.Errorf("%s %dx%dx%d, %s body at degree %d: pairing changes the bits", name, n, k, m, body, degree)
					}
				}
			}
		}
	})
}

// FuzzGEMMShapes searches shape space for a tile-edge or partition case
// the table above misses; the seed corpus is the ragged cases.
func FuzzGEMMShapes(f *testing.F) {
	for _, s := range [][3]uint8{{1, 1, 1}, {3, 5, 7}, {4, 1, 8}, {5, 9, 9}, {30, 128, 96}, {7, 3, 17}, {33, 2, 15}, {9, 31, 1}} {
		f.Add(s[0], s[1], s[2], uint8(3), uint8(1))
	}
	f.Fuzz(func(t *testing.T, n, k, m, degree, fill uint8) {
		if n == 0 || k == 0 || m == 0 {
			t.Skip()
		}
		forceParallel(t, 1)
		checkGEMM(t, int(n), int(k), int(m), gemmFills[int(fill)%len(gemmFills)], int(degree%8)+1)
	})
}
