package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestInt8RoundTripProperty: for finite inputs, each decoded value is
// within half a quantization step (scale/2) of the original, with the
// scale determined per row.
func TestInt8RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(rows, cols uint8, magPow int8) bool {
		r, c := int(rows%6)+1, int(cols%17)+1
		mag := math.Pow(2, float64(magPow%24))
		data := make([]float64, r*c)
		for i := range data {
			data[i] = rng.NormFloat64() * mag
		}
		m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: r, Cols: c, Data: data, Enc: EncInt8}}}
		out := mustDecode(t, mustEncode(t, m)[4:]).Tensors[0].Data
		for i := 0; i < r; i++ {
			row := data[i*c : (i+1)*c]
			scale := int8RowScale(row)
			for j, v := range row {
				// Half a step, with a hair of slack for the v/scale division
				// and scale·q multiplication rounding.
				bound := scale/2 + 1e-9*scale
				if d := math.Abs(out[i*c+j] - v); d > bound {
					t.Logf("row %d col %d: |%g - %g| = %g > %g", i, j, out[i*c+j], v, d, bound)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInt8Edges pins the non-finite and degenerate-row behaviour: NaN
// quantizes to 0, ±Inf saturates to ±127·scale, a zero row (or a row with
// no finite non-zero value) carries scale 0 and decodes to all zeros —
// of which -Inf's is -0: its code stays -127, and -127·0 is -0.
func TestInt8Edges(t *testing.T) {
	m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 4, Cols: 3, Data: []float64{
		math.NaN(), 127, -254, // NaN → 0; scale = 254/127 = 2
		math.Inf(1), math.Inf(-1), 254, // Inf saturates at ±127·scale = ±254
		0, 0, 0, // zero row → scale 0 → zeros
		math.NaN(), math.Inf(1), math.Inf(-1), // no finite non-zero → scale 0 → zeros
	}, Enc: EncInt8}}}
	got := mustDecode(t, mustEncode(t, m)[4:])
	want := []float64{
		0, 128, -254, // 127/2 rounds to 64 → 64·2 = 128, within scale/2 of 127
		254, -254, 254,
		0, 0, 0,
		0, 0, math.Copysign(0, -1),
	}
	for i, w := range want {
		// The quantizer's edge outputs are exact by construction; any ulp
		// of drift is the bug.
		if g := got.Tensors[0].Data[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("value %d: got %g, want %g", i, g, w)
		}
	}
}

// TestQuantizeInt8InPlaceMatchesWire: the in-place quantization must be
// bit-identical to a full wire round trip of the same input — that is
// what makes the bench harness's reference run reproduce the brokered
// losses.
func TestQuantizeInt8InPlaceMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols = 5, 11
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(i%9-4))
	}
	data[3] = math.NaN()
	data[17] = math.Inf(1)
	data[40] = math.Inf(-1)

	wireIn := append([]float64(nil), data...)
	m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: rows, Cols: cols, Data: wireIn, Enc: EncInt8}}}
	got := mustDecode(t, mustEncode(t, m)[4:])

	inPlace := append([]float64(nil), data...)
	quantizeInt8InPlace(inPlace, rows, cols)

	for i := range inPlace {
		a, b := math.Float64bits(inPlace[i]), math.Float64bits(got.Tensors[0].Data[i])
		if a != b {
			t.Fatalf("value %d: in-place %x (%g) != wire %x (%g)",
				i, a, inPlace[i], b, got.Tensors[0].Data[i])
		}
	}
}
