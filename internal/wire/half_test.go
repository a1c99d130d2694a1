package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestHalfExactValues(t *testing.T) {
	cases := []struct {
		in   float64
		want uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},           // max finite half
		{math.Inf(1), 0x7C00},     // +Inf
		{math.Inf(-1), 0xFC00},    // −Inf
		{1e10, 0x7C00},            // overflow → Inf
		{6.103515625e-05, 0x0400}, // smallest normal
	}
	for _, c := range cases {
		if got := Float64ToHalf(c.in); got != c.want {
			t.Fatalf("Float64ToHalf(%v) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if !math.IsNaN(HalfToFloat64(Float64ToHalf(math.NaN()))) {
		t.Fatal("NaN must survive the round trip")
	}
}

func TestHalfRoundTripExactForRepresentable(t *testing.T) {
	// Every value with ≤10 mantissa bits in [2^-14, 2^15] round-trips
	// exactly.
	for _, v := range []float64{1, 1.5, 0.25, 3.140625, -100, 2048, 0.0009765625} {
		got := HalfToFloat64(Float64ToHalf(v))
		if !testutil.BitEqual(got, v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestHalfRoundTripAccuracyProperty(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Mod(raw, 1000) // keep within half range
		if math.IsNaN(v) {
			return true
		}
		got := HalfToFloat64(Float64ToHalf(v))
		// binary16 has ~3 decimal digits: relative error ≤ 2^-10 for
		// normal values, absolute tiny for subnormals.
		if math.Abs(v) < 6.1e-5 {
			return math.Abs(got-v) <= 6.1e-5
		}
		return math.Abs(got-v) <= math.Abs(v)*9.8e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHalfSubnormals(t *testing.T) {
	// Smallest positive subnormal half = 2^-24.
	tiny := math.Pow(2, -24)
	h := Float64ToHalf(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 encodes as %#04x, want 0x0001", h)
	}
	if got := HalfToFloat64(h); !testutil.BitEqual(got, tiny) {
		t.Fatalf("subnormal round trip: %v vs %v", got, tiny)
	}
	// Below half the smallest subnormal flushes to zero.
	if Float64ToHalf(tiny/4) != 0 {
		t.Fatal("deep underflow must flush to zero")
	}
}

func TestHalfEncodeDecodeSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 37)
	for i := range src {
		src[i] = rng.NormFloat64() * 10
	}
	buf := appendFP16Payload(make([]byte, 0, 2*len(src)), src)
	if len(buf) != 2*len(src) {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	dst := make([]float64, len(src))
	HalfDecode(buf, dst)
	for i := range src {
		if math.Abs(dst[i]-src[i]) > math.Abs(src[i])*1e-3+1e-4 {
			t.Fatalf("slice round trip[%d]: %v vs %v", i, dst[i], src[i])
		}
	}
}
