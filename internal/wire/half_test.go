package wire

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// halfSweep enables TestHalfEncodeAllFloat32, the exhaustive check of
// every float32 bit pattern (≈30 s on two cores):
//
//	go test ./internal/wire -run AllFloat32 -args -half.sweep
var halfSweep = flag.Bool("half.sweep", false, "run the exhaustive 2^32 float32 → binary16 sweep")

// float64ToHalfRef is the reference converter both codec bodies are
// checked against: the straightforward branchy conversion the codec
// shipped first, kept here as the oracle of the contract in half.go.
func float64ToHalfRef(v float64) uint16 {
	bits := math.Float32bits(float32(v))
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF

	switch {
	case int32(bits>>23&0xFF) == 0xFF: // Inf or NaN
		if mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp >= 0x1F: // overflow → Inf
		return sign | 0x7C00
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return sign // flush to zero
		}
		// Build subnormal with implicit leading 1.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		// Round to nearest even on the truncated 13 bits.
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// halfToFloat64Ref is the reference decoder, the oracle's inverse.
func halfToFloat64Ref(h uint16) float64 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)

	var bits uint32
	switch {
	case exp == 0:
		if mant == 0 {
			bits = sign // ±0
		} else {
			// Subnormal: normalize.
			e := uint32(127 - 15 + 1)
			for mant&0x400 == 0 {
				mant <<= 1
				e--
			}
			mant &= 0x3FF
			bits = sign | e<<23 | mant<<13
		}
	case exp == 0x1F:
		bits = sign | 0xFF<<23 | mant<<13 // Inf/NaN
	default:
		bits = sign | (exp-15+127)<<23 | mant<<13
	}
	return float64(math.Float32frombits(bits))
}

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
		if got := float64ToHalf(c.in); got != c.want {
			t.Fatalf("Float64ToHalf(%v) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if !math.IsNaN(halfToFloat64(float64ToHalf(math.NaN()))) {
		t.Fatal("NaN must survive the round trip")
	}
}

func TestHalfRoundTripExactForRepresentable(t *testing.T) {
	// Every value with ≤10 mantissa bits in [2^-14, 2^15] round-trips
	// exactly.
	for _, v := range []float64{1, 1.5, 0.25, 3.140625, -100, 2048, 0.0009765625} {
		got := halfToFloat64(float64ToHalf(v))
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
		got := halfToFloat64(float64ToHalf(v))
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
	h := float64ToHalf(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 encodes as %#04x, want 0x0001", h)
	}
	if got := halfToFloat64(h); !testutil.BitEqual(got, tiny) {
		t.Fatalf("subnormal round trip: %v vs %v", got, tiny)
	}
	// Below half the smallest subnormal flushes to zero.
	if float64ToHalf(tiny/4) != 0 {
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

// halfCover is the structured cover of the f32 → f16 rounding: every sign
// × float32 exponent × 10-bit kept mantissa with the dropped 13 bits at
// each rounding edge (0, 1, just below the tie, the tie, just above it,
// all ones), and for every subnormal shift every kept value with the
// dropped bits at the tie and the tie ± 1.
func halfCover() []float64 {
	var vals []float64
	f32 := func(bits uint32) { vals = append(vals, float64(math.Float32frombits(bits))) }
	for sign := uint32(0); sign < 2; sign++ {
		for e := uint32(0); e < 256; e++ {
			for m := uint32(0); m < 1024; m++ {
				for _, tail := range []uint32{0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF} {
					f32(sign<<31 | e<<23 | m<<13 | tail)
				}
			}
		}
		// A float32 of exponent e in 102..112 becomes a half subnormal
		// that keeps the top e−102 bits of its 24-bit significand
		// (implicit bit included) and rounds away the other 126−e.
		for e := uint32(102); e <= 112; e++ {
			shift := 126 - e
			tie := uint32(1) << (shift - 1)
			for k := uint32(0); k < 1<<(e-102); k++ {
				for _, rem := range []uint32{tie - 1, tie, tie + 1} {
					sig := k<<shift | rem
					if sig < 1<<23 || sig >= 1<<24 {
						continue // not a significand of exponent e
					}
					f32(sign<<31 | e<<23 | sig&0x7FFFFF)
				}
			}
		}
	}
	return vals
}

// halfEdges are the inputs named by the contract: NaNs with payloads
// (both signs, signalling and quiet), ±Inf, ±0, the 65 504 / 65 520
// overflow edge, 2⁻²⁵, and float64 values that are not float32 values,
// where rounding to float32 first decides the half (double rounding).
func halfEdges() []float64 {
	var vals []float64
	for _, bits := range []uint64{
		0x7FF0000000000001, 0x7FF4000000000000, 0x7FF7FFFFFFFFFFFF, // signalling
		0x7FF8000000000000, 0x7FF8000000000001, 0x7FFC000000000000, 0x7FFFFFFFFFFFFFFF, // quiet
		0x7FF0000020000000, 0x7FF0040000000000, // payloads float32 keeps
	} {
		vals = append(vals, math.Float64frombits(bits), math.Float64frombits(bits|1<<63))
	}
	tiny := math.Ldexp(1, -25)
	for _, v := range []float64{
		math.Inf(1), 0, 65504, 65519, 65519.99999, 65520, 65520.00001, 65536, 1e300,
		tiny, math.Nextafter(tiny, 0), math.Nextafter(tiny, 1), 3 * tiny, 5 * tiny,
		math.Ldexp(1, -24), math.Ldexp(1, -14), math.Nextafter(math.Ldexp(1, -14), 0),
		1e-300, math.SmallestNonzeroFloat64, math.MaxFloat32, math.Nextafter(math.MaxFloat32, math.Inf(1)),
		// Ties in binary16 that float32 rounding creates or breaks.
		1 + 0x1p-11 + 0x1p-40, 1 + 0x1p-11 - 0x1p-40, 1 + 0x1p-11 + 0x1p-24 + 0x1p-30,
		1 + 3*0x1p-11 - 0x1p-40, 1 + 0x1p-11 + 0x1p-25, 1 + 0x1p-11 + 0x1p-25 + 0x1p-52,
		tiny + 0x1p-50, tiny - 0x1p-52, 3*tiny - 0x1p-52,
	} {
		vals = append(vals, v, -v)
	}
	return vals
}

// halfRandom draws float64s with full-width mantissas, exponents across
// and just beyond the half range.
func halfRandom(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		exp := uint64(1023 - 30 + rng.Intn(50))
		vals[i] = math.Float64frombits(uint64(rng.Intn(2))<<63 | exp<<52 | rng.Uint64()&(1<<52-1))
	}
	return vals
}

// checkHalfEncode fails unless both bodies encode vals exactly as the
// reference does: the portable Float64ToHalf value by value, and the
// block encoder (the F16C body where the CPU has it, plus its tail).
func checkHalfEncode(t *testing.T, vals []float64) {
	t.Helper()
	buf := appendFP16Payload(make([]byte, 0, 2*len(vals)), vals)
	for i, v := range vals {
		want := float64ToHalfRef(v)
		if got := float64ToHalf(v); got != want {
			t.Fatalf("Float64ToHalf(%v = %#016x) = %#04x, want %#04x", v, math.Float64bits(v), got, want)
		}
		if got := binary.LittleEndian.Uint16(buf[2*i:]); got != want {
			t.Fatalf("block encode [%d] of %v (%#016x) = %#04x, want %#04x", i, v, math.Float64bits(v), got, want)
		}
	}
}

// TestHalfEncodeMatchesReference pins the encoder's bits on the
// structured cover, the named edges and random float64s.
func TestHalfEncodeMatchesReference(t *testing.T) {
	checkHalfEncode(t, halfCover())
	checkHalfEncode(t, halfEdges())
	checkHalfEncode(t, halfRandom(1<<18, 1))
}

// TestHalfDecodeAllHalves decodes every binary16 pattern with both
// bodies and compares the float64 bits with the reference.
func TestHalfDecodeAllHalves(t *testing.T) {
	src := make([]byte, 2<<16)
	for h := range 1 << 16 {
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	dst := make([]float64, 1<<16)
	HalfDecode(src, dst)
	for h := range 1 << 16 {
		want := math.Float64bits(halfToFloat64Ref(uint16(h)))
		if got := math.Float64bits(halfToFloat64(uint16(h))); got != want {
			t.Fatalf("HalfToFloat64(%#04x) = %#016x, want %#016x", h, got, want)
		}
		if got := math.Float64bits(dst[h]); got != want {
			t.Fatalf("HalfDecode of %#04x = %#016x, want %#016x", h, got, want)
		}
	}
}

// TestHalfBlocksLengthsAndOffsets runs the block functions over lengths
// around the 8-value vector step, with the byte side at odd offsets (a
// payload starts wherever its frame header ends) and the float side off
// any 16- or 32-byte boundary, and checks that nothing outside the
// operand is written. QuantizeHalfInPlace must agree with an encode and
// decode over the frame path, across its internal chunking.
func TestHalfBlocksLengthsAndOffsets(t *testing.T) {
	const guard = 0xA5
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 4095} {
		for _, off := range []int{1, 3} {
			vals := halfRandom(n+1, int64(n))[1:]
			raw := make([]byte, off+2*n+8)
			for i := range raw {
				raw[i] = guard
			}
			enc := appendFP16Payload(raw[:off], vals)
			for i, v := range vals {
				if got, want := binary.LittleEndian.Uint16(enc[off+2*i:]), float64ToHalfRef(v); got != want {
					t.Fatalf("n=%d off=%d: encode [%d] = %#04x, want %#04x", n, off, i, got, want)
				}
			}
			for i, b := range raw[off+2*n:] {
				if b != guard {
					t.Fatalf("n=%d off=%d: encode wrote byte %d past the payload", n, off, i)
				}
			}

			dec := make([]float64, n+2)
			dec[n+1] = math.Pi
			HalfDecode(enc[off:], dec[1:n+1])
			quant := append([]float64(nil), vals...)
			QuantizeHalfInPlace(quant)
			for i := range vals {
				want := math.Float64bits(halfToFloat64Ref(float64ToHalfRef(vals[i])))
				if got := math.Float64bits(dec[1+i]); got != want {
					t.Fatalf("n=%d off=%d: decode [%d] = %#016x, want %#016x", n, off, i, got, want)
				}
				if got := math.Float64bits(quant[i]); got != want {
					t.Fatalf("n=%d: QuantizeHalfInPlace [%d] = %#016x, want %#016x", n, i, got, want)
				}
			}
			if dec[0] != 0 || dec[n+1] != math.Pi {
				t.Fatalf("n=%d off=%d: decode wrote outside its destination", n, off)
			}
		}
	}
}

// TestHalfEncodeAllFloat32 is the exhaustive sweep: every float32 bit
// pattern through both bodies against the reference. Enabled by
// -half.sweep.
func TestHalfEncodeAllFloat32(t *testing.T) {
	if !*halfSweep {
		t.Skip("exhaustive sweep; enable with -half.sweep")
	}
	const chunk = 1 << 16
	var wg sync.WaitGroup
	next := make(chan uint32)
	var mu sync.Mutex
	var bad []string
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]float64, chunk)
			buf := make([]byte, 0, 2*chunk)
			for hi := range next {
				for i := range vals {
					vals[i] = float64(math.Float32frombits(hi<<16 | uint32(i)))
				}
				buf = appendFP16Payload(buf[:0], vals)
				for i, v := range vals {
					want := float64ToHalfRef(v)
					if float64ToHalf(v) != want || binary.LittleEndian.Uint16(buf[2*i:]) != want {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("%#08x", hi<<16|uint32(i)))
						mu.Unlock()
					}
				}
			}
		}()
	}
	for hi := range uint32(1 << 16) {
		next <- hi
	}
	close(next)
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d float32 patterns mismatch, first %v", len(bad), bad[:min(len(bad), 8)])
	}
}
