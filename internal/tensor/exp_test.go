package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// checkExp runs expInto over x into a dirty destination and compares
// every result's bits with math.Exp's, and then in place.
func checkExp(t *testing.T, what string, x []float64) {
	t.Helper()
	dst := make([]float64, len(x)+1)
	for i := range dst {
		dst[i] = math.NaN()
	}
	expInto(dst[:len(x)], x)
	for i, v := range x {
		if got, want := math.Float64bits(dst[i]), math.Float64bits(math.Exp(v)); got != want {
			t.Fatalf("%s: exp(%v) [bits %#x] at %d of %d = %#x, want %#x", what, v, math.Float64bits(v), i, len(x), got, want)
		}
	}
	if !math.IsNaN(dst[len(x)]) {
		t.Fatalf("%s: wrote past the end of dst", what)
	}
	in := append([]float64(nil), x...)
	expInto(in, in)
	for i := range x {
		if math.Float64bits(in[i]) != math.Float64bits(dst[i]) {
			t.Fatalf("%s: in place, exp(%v) at %d differs", what, x[i], i)
		}
	}
}

// TestExpBodyBitIdentical: expInto is math.Exp bit for bit over ≥4M draws
// from N(0,1), N(0,10²), U(−700,700) and the softmax's U(−40,0), and over
// Sigmoid's edge table (both signs) in every lane of a group of eight, for
// every tail length and unaligned start. Where the AVX-512 body runs it
// is the proof that the body replays math.Exp's FMA branch.
func TestExpBodyBitIdentical(t *testing.T) {
	if cpu.HasAVX512 && cpu.HasFMA {
		x := []float64{0, 1, -1, 2, -2, 3, -3, 4}
		if n := expVec(make([]float64, 8), x); n != 8 {
			t.Fatalf("the AVX-512 body computed %d of 8 main-path lanes, want 8", n)
		}
	}
	per := 1_000_000
	if testing.Short() || raceEnabled {
		per /= 16
	}
	rng := rand.New(rand.NewSource(43))
	x := make([]float64, per)
	for _, d := range []struct {
		name string
		draw func() float64
	}{
		{"N(0,1)", rng.NormFloat64},
		{"N(0,10²)", func() float64 { return 10 * rng.NormFloat64() }},
		{"U(−700,700)", func() float64 { return 1400*rng.Float64() - 700 }},
		{"U(−40,0)", func() float64 { return -40 * rng.Float64() }},
	} {
		for i := range x {
			x[i] = d.draw()
		}
		checkExp(t, d.name, x)
	}

	edges := sigmoidEdges()
	for _, e := range sigmoidEdges() {
		edges = append(edges, -e)
	}
	group := make([]float64, 16)
	for _, e := range edges {
		for lane := range group {
			for i := range group {
				group[i] = rng.NormFloat64()
			}
			group[lane] = e
			checkExp(t, "edge in a lane", group)
		}
	}
	checkExp(t, "edges", edges)
	for i := range x[:48] {
		x[i] = 3 * rng.NormFloat64()
	}
	x[21] = -800
	for off := 0; off < 8; off++ {
		for n := 0; n <= 40; n++ {
			checkExp(t, "unaligned", x[off:off+n])
		}
	}
}

// FuzzExpBody compares expInto with math.Exp on arbitrary float64 bit
// patterns at an arbitrary start.
func FuzzExpBody(f *testing.F) {
	seed := func(off uint8, xs ...float64) {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		f.Add(off, b)
	}
	seed(0, 0, 1, -1, 2, -2, 3, -3, 4, 5)
	seed(3, 708.39, -709.44, 709.78, -745.13, 745.13, math.Inf(-1), math.NaN(), 5e-324, 1e300, -12)
	f.Fuzz(func(t *testing.T, off uint8, b []byte) {
		x := make([]float64, len(b)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkExp(t, "fuzz", x[min(int(off%8), len(x)):])
	})
}
