package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameMessage reports whether two fp64 messages carry the same fields:
// the codec is injective, so equal frames mean equal messages (a pooled
// decode hands back empty-but-non-nil slices where the fixture has nil,
// which reflect.DeepEqual on the structs would reject).
func sameMessage(t testing.TB, a, b *Message) bool {
	return bytes.Equal(mustEncode(t, a), mustEncode(t, b))
}

func TestRoundTripAllFields(t *testing.T) {
	m := &Message{
		Type:   MsgForwardMulti,
		Layer:  7,
		Expert: 3,
		Seq:    42,
		Text:   "hello",
		Tensors: []Matrix{
			{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}},
			{Rows: 1, Cols: 1, Data: []float64{math.Pi}},
		},
	}
	got := mustDecode(t, mustEncode(t, m)[4:])
	if !sameMessage(t, m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	m := &Message{Type: MsgStep}
	got := mustDecode(t, mustEncode(t, m)[4:])
	if got.Type != MsgStep || len(got.Tensors) != 0 || got.Text != "" {
		t.Fatalf("empty message mismatch: %+v", got)
	}
}

func TestRoundTripNegativeLayer(t *testing.T) {
	m := &Message{Type: MsgAck, Layer: -1, Expert: -1}
	got := mustDecode(t, mustEncode(t, m)[4:])
	if got.Layer != -1 || got.Expert != -1 {
		t.Fatalf("negative ints mangled: %+v", got)
	}
}

// TestAppendFrameStream: frames appended back to back into one buffer
// (the destination-passing use) split on their length prefixes and decode
// to the original messages.
func TestAppendFrameStream(t *testing.T) {
	msgs := []*Message{
		{Type: MsgAssign, Layer: 1, Expert: 2, Tensors: []Matrix{{Rows: 1, Cols: 2, Data: []float64{9, 8}}}},
		{Type: MsgError, Text: "boom"},
		{Type: MsgShutdown},
	}
	var buf []byte
	for _, m := range msgs {
		var err error
		if buf, err = AppendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		n := int(binary.LittleEndian.Uint32(buf))
		got := mustDecode(t, buf[4:4+n])
		if !sameMessage(t, want, got) {
			t.Fatalf("frame mismatch: %+v vs %+v", want, got)
		}
		buf = buf[4+n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(buf))
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}}}
	full := mustEncode(t, m)[4:]
	for _, cut := range []int{1, 10, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		rejectDecode(t, full[:cut], fmt.Sprintf("truncation at %d", cut))
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	m := &Message{Type: MsgAck}
	body := append(mustEncode(t, m)[4:], 0xFF)
	rejectDecode(t, body, "trailing bytes")
}

func TestEncodeRejectsBadMatrix(t *testing.T) {
	_, err := AppendFrame(nil, &Message{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 2, Cols: 2, Data: []float64{1}}}})
	if err == nil {
		t.Fatal("expected error for inconsistent matrix")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := MsgAssign; mt <= MsgBackwardMultiResult; mt++ {
		if s := mt.String(); s == "" || s[0] == 'M' {
			t.Fatalf("missing name for type %d: %q", mt, s)
		}
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Fatal("unknown type formatting wrong")
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(layer, expert int32, seq uint64, text string, rows uint8, cols uint8) bool {
		r, c := int(rows%8), int(cols%8)
		data := make([]float64, r*c)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		m := &Message{
			Type: MsgBackwardMulti, Layer: layer, Expert: expert, Seq: seq, Text: text,
			Tensors: []Matrix{{Rows: r, Cols: c, Data: data}},
		}
		got, err := DecodePooled(mustEncode(t, m)[4:])
		if err != nil {
			return false
		}
		defer Release(got)
		return sameMessage(t, m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripEncodings: the Enc byte survives the round trip and the
// decoded values match the encoding's reference quantization.
func TestRoundTripEncodings(t *testing.T) {
	src := []float64{1.5, -2.25, 0.125, 3e-3, -7.5, 42}
	for _, enc := range []Encoding{EncFP64, EncFP16, EncInt8} {
		m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{
			{Rows: 2, Cols: 3, Data: append([]float64(nil), src...), Enc: enc}}}
		tr := mustDecode(t, mustEncode(t, m)[4:]).Tensors[0]
		if tr.Enc != enc || tr.Rows != 2 || tr.Cols != 3 {
			t.Fatalf("%v: header mangled: %+v", enc, tr)
		}
		want := append([]float64(nil), src...)
		switch enc {
		case EncFP16:
			for i, v := range want {
				want[i] = halfToFloat64(float64ToHalf(v))
			}
		case EncInt8:
			quantizeInt8InPlace(want, 2, 3)
		}
		for i := range want {
			// Decode must reproduce the reference quantization bit for
			// bit; a tolerance would mask codec drift.
			if math.Float64bits(tr.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v value %d: got %g, want %g", enc, i, tr.Data[i], want[i])
			}
		}
	}
}

// TestDecodeRejectsUnknownEncoding: an encoding byte outside the known
// range must be rejected, not treated as fp64.
func TestDecodeRejectsUnknownEncoding(t *testing.T) {
	rejectDecode(t, adversarialTensorFrame(1, 1, 3, 8), "unknown encoding byte")
}

// TestDecodePooledRoundTrip: the pooled decoder must reproduce the frame
// exactly, and pool reuse after Release must not corrupt a second decode.
func TestDecodePooledRoundTrip(t *testing.T) {
	m := &Message{Type: MsgForwardMulti, Layer: 2, Expert: ExpertCoalesced, Seq: 11,
		Tensors: []Matrix{
			{Rows: 1, Cols: 2, Data: []float64{4, 9}},
			{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}},
			{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}},
		}}
	body := mustEncode(t, m)[4:]
	for round := 0; round < 3; round++ {
		got, err := DecodePooled(body)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMessage(t, m, got) {
			t.Fatalf("round %d mismatch:\n%+v\n%+v", round, m, got)
		}
		Release(got)
	}
}

// TestAppendFrameZeroAlloc: with a pre-sized destination the hot-path
// encoder must not allocate, for any encoding, and neither may Quantize.
func TestAppendFrameZeroAlloc(t *testing.T) {
	for _, enc := range []Encoding{EncFP64, EncFP16, EncInt8} {
		m := &Message{Type: MsgForwardMulti, Tensors: []Matrix{
			{Rows: 16, Cols: 16, Data: make([]float64, 256), Enc: enc}}}
		dst := make([]byte, 0, EncodedSize(m))
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			dst, err = AppendFrame(dst[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: AppendFrame allocated %.1f times per run", enc, allocs)
		}
		// The in-process pipe's stand-in for the codec round trip.
		if allocs := testing.AllocsPerRun(100, m.Tensors[0].Quantize); allocs != 0 {
			t.Errorf("%v: Quantize allocated %.1f times per run", enc, allocs)
		}
	}
}
