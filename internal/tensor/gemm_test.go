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
// Each element is s = math.FMA(A(i,p), B(p,j), s) from s = +0 with p
// ascending — the scalar loop of gemm.go's contract. No zero in A is skipped: under a fused chain
// that would not be bit-neutral (see gemm.go).

// oracle returns op(a)·op(b), [n,m], where op transposes an operand whose
// flag is set: each operand is laid out as the product reads it, then
// every row of the result runs its chains with p outermost.
func oracle(a, b *Tensor, aT, bT bool) []float64 {
	ad, bd := a.Data, b.Data
	n, k, m := a.shape[0], a.shape[1], b.shape[1]
	if aT {
		ad, n, k = transpose(a), k, n
	}
	if bT {
		bd, m = transpose(b), b.shape[0]
	}
	r := make([]float64, n*m)
	for i := 0; i < n; i++ {
		ri := r[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			v, bp := ad[i*k+p], bd[p*m:(p+1)*m]
			for j := range ri {
				ri[j] = math.FMA(v, bp[j], ri[j])
			}
		}
	}
	return r
}

// mm is the plain product op(a)·op(b) into a fresh tensor.
func mm(a, b *Tensor, aT, bT bool) *Tensor {
	n, m := a.shape[0], b.shape[1]
	if aT {
		n = a.shape[1]
	}
	if bT {
		m = b.shape[0]
	}
	return GEMM(Zeros(n, m), a, b, aT, bT, 1, false, nil)
}

// fillNaN makes x a dirty destination.
func fillNaN(x *Tensor) {
	for i := range x.Data {
		x.Data[i] = math.NaN()
	}
}

// transposes are the four operand orientations of op(a)·op(b).
var transposes = [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}

// gemmOperands returns a and b for an [n,k]·[k,m] product under the
// orientation (aT, bT), filled by f.
func gemmOperands(rng *rand.Rand, f gemmFill, n, k, m int, aT, bT bool) (a, b *Tensor) {
	a, b = Zeros(n, k), Zeros(k, m)
	if aT {
		a = Zeros(k, n)
	}
	if bT {
		b = Zeros(m, k)
	}
	f.fill(rng, a)
	f.fill(rng, b)
	return a, b
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
	ForEachTileBody(func(string) { f(tile) })
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

// checkGEMM compares GEMM against the oracle on one shape and fill, in
// all four operand orientations, packing per call and reading panels a
// held Panels packed, with every tile body the CPU can run, at each of
// the given parallel degrees. Callers forceParallel first, so every kernel
// that can split does, and the engine's defaults come back when the test
// ends.
func checkGEMM(t *testing.T, n, k, m int, f gemmFill, degrees ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
	got := Zeros(n, m)
	for _, tr := range transposes {
		a, b := gemmOperands(rng, f, n, k, m, tr[0], tr[1])
		want := oracle(a, b, tr[0], tr[1])
		var held Panels
		forEachTile(func(body tileBody) {
			for _, degree := range degrees {
				SetParallelism(degree)
				for _, pk := range []*Panels{nil, &held} {
					fillNaN(got)
					GEMM(got, a, b, tr[0], tr[1], 1, false, pk)
					if !testutil.BitEqualSlices(want, got.Data) {
						t.Errorf("aT=%t bT=%t panels=%t %dx%dx%d %s, %s body at degree %d: not bit-identical to the oracle", tr[0], tr[1], pk != nil, n, k, m, f.name, body, degree)
					}
				}
			}
		})
	}
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
// operand orientation, packing per call or from held panels, on every
// tile-edge combination, on both sides of every
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
		// A transposed b packs each B panel from eight rows of b
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

// TestGEMMEpilogueBitIdentical: stored, accumulating and scaled products
// land every element exactly once, bit for bit as the product into
// scratch then c[i] += α·s[i] (AddInPlace at α = 1) or ScaleInPlace —
// in every operand orientation, packing per call or from held panels,
// through the padded n < 4 driver, ragged last row tiles and panels,
// pairs, panels read in place and packed, and the empty sum, with every
// tile body at several parallel degrees. α = 16/3 rounds its multiply, so
// a fused epilogue shows; the destinations start as the fill's values,
// signed zeros and denormals included.
func TestGEMMEpilogueBitIdentical(t *testing.T) {
	dims := []int{1, 3, 4, 5, 9, 17}
	if testing.Short() || raceEnabled {
		dims = []int{1, 5, 9}
	}
	forceParallel(t, 1)
	shapes := slices.Clone(pairingShapes)
	for _, n := range dims {
		for _, k := range dims {
			for _, m := range dims {
				shapes = append(shapes, [3]int{n, k, m})
			}
		}
	}
	// The adapter's products at rank 8 and 3: B read in place for k = r
	// and for r rows, and the r-column panel, full and ragged.
	shapes = append(shapes, [3]int{32, 8, 352}, [3]int{30, 8, 40}, [3]int{8, 32, 352}, [3]int{3, 30, 40},
		[3]int{32, 128, 8}, [3]int{128, 32, 8}, [3]int{32, 40, 3}, [3]int{40, 30, 3}, [3]int{3, 0, 9})
	for _, f := range gemmFills {
		for _, s := range shapes {
			checkEpilogue(t, s[0], s[1], s[2], f)
		}
	}
}

func checkEpilogue(t *testing.T, n, k, m int, f gemmFill) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
	c0, got := Zeros(n, m), Zeros(n, m)
	f.fill(rng, c0)
	for _, tr := range transposes {
		a, b := gemmOperands(rng, f, n, k, m, tr[0], tr[1])
		product := New(oracle(a, b, tr[0], tr[1]), n, m)
		var held Panels
		forEachTile(func(body tileBody) {
			for _, degree := range []int{1, 3} {
				SetParallelism(degree)
				for _, alpha := range []float64{1, 16.0 / 3} {
					for _, mode := range []string{"store", "accumulate", "scale"} {
						if mode == "store" && alpha != 1 {
							continue
						}
						for _, pk := range []*Panels{nil, &held} {
							want := product.Clone()
							switch mode {
							case "store":
								fillNaN(got)
							case "accumulate":
								want = c0.Clone()
								for i := range want.Data {
									want.Data[i] += alpha * product.Data[i]
								}
								copy(got.Data, c0.Data)
							case "scale":
								want.ScaleInPlace(alpha)
								fillNaN(got)
							}
							GEMM(got, a, b, tr[0], tr[1], alpha, mode == "accumulate", pk)
							if !testutil.BitEqualSlices(want.Data, got.Data) {
								t.Errorf("%s α=%v aT=%t bT=%t panels=%t %dx%dx%d %s, %s body at degree %d: not the bits of the product and a second pass",
									mode, alpha, tr[0], tr[1], pk != nil, n, k, m, f.name, body, degree)
							}
						}
					}
				}
			}
		})
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
	got := GEMM(Full(7, 3, 5), Zeros(3, 0), Zeros(0, 5), false, false, 1, false, nil)
	for _, v := range got.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("k=0 product has element %v, want +0", v)
		}
	}
	got = GEMM(Full(7, 3, 5), Zeros(3, 0), Zeros(5, 0), false, true, 1, false, nil)
	for _, v := range got.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("k=0 product with b transposed has element %v, want +0", v)
		}
	}
	GEMM(Zeros(0, 5), Zeros(0, 4), Zeros(4, 5), false, false, 1, false, nil)
	GEMM(Zeros(0, 5), Zeros(4, 0), Zeros(4, 5), true, false, 1, false, nil)
	GEMM(Zeros(3, 0), Zeros(3, 4), Zeros(0, 4), false, true, 1, false, nil)
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
			for i, v := range mm(a, b, false, false).Data {
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
						mm(a, b, false, false).Data, mm(a, bt, false, true).Data,
						GEMM(Zeros(n, m), a, b, false, false, 1, false, &pk).Data, GEMM(Zeros(n, m), a, bt, false, true, 1, false, &pkT).Data,
					}
				}
				for op, name := range []string{"a·b", "a·btᵀ", "a·b packed", "a·btᵀ packed"} {
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
