package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// sigmoidRef is the definition Sigmoid must reproduce bit for bit.
func sigmoidRef(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// checkSigmoid runs Sigmoid over z into a dirty destination and compares
// every result's bits with sigmoidRef.
func checkSigmoid(t *testing.T, what string, z []float64) {
	t.Helper()
	dst := make([]float64, len(z)+1)
	for i := range dst {
		dst[i] = math.NaN()
	}
	Sigmoid(dst[:len(z)], z)
	for i, v := range z {
		if got, want := math.Float64bits(dst[i]), math.Float64bits(sigmoidRef(v)); got != want {
			t.Fatalf("%s: σ(%v) [bits %#x] at %d of %d = %#x, want %#x", what, v, math.Float64bits(v), i, len(z), got, want)
		}
	}
	if !math.IsNaN(dst[len(z)]) {
		t.Fatalf("%s: wrote past the end of dst", what)
	}
}

// sigmoidEdges are the inputs where math.Exp(−z) leaves its main path or
// is about to: ±0, ±Inf, NaN, subnormals, and −z around where its 2^bx
// scale reaches the denormal range (708.39), where its exponent reaches
// 2047 (709.44), its Overflow constant (709.78) and its underflow to zero
// (745.13) — each with the ulps either side, and every exponent step
// bx ± ½ near both ends of the range.
func sigmoidEdges() []float64 {
	zs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
		5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072009e-308, -2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, math.SmallestNonzeroFloat64 * 3,
	}
	var near []float64
	for _, x := range []float64{708.39, 708.3964185322641, 709.44, 709.436139303104, 7.09782712893384e+02, 745.13, 745.1332191019412, 1, 36.7, 40} {
		near = append(near, x)
	}
	for b := -1080; b <= -1018; b++ {
		near = append(near, (float64(b)+0.5)*math.Ln2)
	}
	for b := 1018; b <= 1026; b++ {
		near = append(near, (float64(b)+0.5)*math.Ln2)
	}
	for _, x := range near {
		for _, s := range []float64{1, -1} {
			v := s * x
			zs = append(zs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)),
				math.Nextafter(math.Nextafter(v, math.Inf(1)), math.Inf(1)), v+1e-9, v-1e-9)
		}
	}
	return zs
}

// TestSigmoidBodyBitIdentical: Sigmoid is 1/(1+math.Exp(−z)) bit for bit
// over ≥4M draws from N(0,1), N(0,10²) and U(−700,700), and over the edge
// table in every lane of a group of eight, for every tail length 1–7 and
// unaligned start. Where the AVX-512 body runs it is the proof that the
// body replays math.Exp's FMA branch, and the check that catches a Go
// toolchain whose math.Exp no longer computes what the body replays.
func TestSigmoidBodyBitIdentical(t *testing.T) {
	if cpu.HasAVX512 && cpu.HasFMA {
		z := []float64{0, 1, -1, 2, -2, 3, -3, 4}
		if n := sigmoidVec(make([]float64, 8), z); n != 8 {
			t.Fatalf("the AVX-512 body computed %d of 8 main-path lanes, want 8", n)
		}
	}
	per := 1_500_000
	if testing.Short() || raceEnabled {
		per /= 16
	}
	rng := rand.New(rand.NewSource(42))
	z := make([]float64, per)
	for _, d := range []struct {
		name string
		draw func() float64
	}{
		{"N(0,1)", rng.NormFloat64},
		{"N(0,10²)", func() float64 { return 10 * rng.NormFloat64() }},
		{"U(−700,700)", func() float64 { return 1400*rng.Float64() - 700 }},
	} {
		for i := range z {
			z[i] = d.draw()
		}
		checkSigmoid(t, d.name, z)
	}

	// Each edge value in each lane of a group of normal draws.
	edges := sigmoidEdges()
	group := make([]float64, 16)
	for _, e := range edges {
		for lane := range group {
			for i := range group {
				group[i] = rng.NormFloat64()
			}
			group[lane] = e
			checkSigmoid(t, "edge in a lane", group)
		}
	}
	// All edges back to back, then every start 0–7 and length 0–40.
	checkSigmoid(t, "edges", edges)
	for i := range z[:48] {
		z[i] = 3 * rng.NormFloat64()
	}
	z[21] = edges[len(edges)/2]
	for off := 0; off < 8; off++ {
		for n := 0; n <= 40; n++ {
			checkSigmoid(t, "unaligned", z[off:off+n])
		}
	}
}

// FuzzSigmoidBody compares Sigmoid with 1/(1+math.Exp(−z)) on arbitrary
// float64 bit patterns at an arbitrary start.
func FuzzSigmoidBody(f *testing.F) {
	seed := func(off uint8, zs ...float64) {
		b := make([]byte, 8*len(zs))
		for i, z := range zs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(z))
		}
		f.Add(off, b)
	}
	seed(0, 0, 1, -1, 2, -2, 3, -3, 4, 5)
	seed(3, -708.39, 709.44, -709.78, 745.13, -745.13, math.Inf(1), math.NaN(), 5e-324, -1e300, 12)
	f.Fuzz(func(t *testing.T, off uint8, b []byte) {
		z := make([]float64, len(b)/8)
		for i := range z {
			z[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkSigmoid(t, "fuzz", z[min(int(off%8), len(z)):])
	})
}

// TestSigmoidAllocFree: Sigmoid allocates nothing, on the vector groups,
// on a group the scalar expression finishes, and on the tail.
func TestSigmoidAllocFree(t *testing.T) {
	z := make([]float64, 8*40+5)
	for i := range z {
		z[i] = float64(i%17) - 8
	}
	z[100] = 800 // math.Exp(−800) leaves the main path
	dst := make([]float64, len(z))
	if allocs := testing.AllocsPerRun(100, func() { Sigmoid(dst, z) }); allocs > 0 {
		t.Fatalf("Sigmoid allocates %.1f times, want 0", allocs)
	}
}
