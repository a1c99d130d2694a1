package wire

import (
	"encoding/binary"
	"testing"
)

// mustEncode encodes m into a fresh frame or fails the test — the
// fixtures are all internally consistent, so an error here is a codec bug.
func mustEncode(tb testing.TB, m *Message) []byte {
	tb.Helper()
	buf, err := AppendFrame(nil, m)
	if err != nil {
		tb.Fatalf("AppendFrame(%v): %v", m.Type, err)
	}
	return buf
}

// mustDecode decodes a frame body with the pooled decoder — the one that
// reads network bytes — and releases the message when the test ends.
func mustDecode(tb testing.TB, body []byte) *Message {
	tb.Helper()
	m, err := DecodePooled(body)
	if err != nil {
		tb.Fatalf("DecodePooled: %v", err)
	}
	tb.Cleanup(func() { Release(m) })
	return m
}

// rejectDecode asserts the pooled decoder refuses body; an accepted
// message is released before the failure is reported.
func rejectDecode(tb testing.TB, body []byte, what string) {
	tb.Helper()
	if m, err := DecodePooled(body); err == nil {
		Release(m)
		tb.Fatalf("%s not detected", what)
	}
}

// adversarialTensorFrame hand-crafts a frame body whose single tensor
// header claims the given rows/cols/encoding over an (almost) empty
// payload.
func adversarialTensorFrame(rows, cols uint32, enc byte, payload int) []byte {
	body := make([]byte, 0, 32+payload)
	body = append(body, byte(MsgForwardMulti))
	body = binary.LittleEndian.AppendUint32(body, 0) // layer
	body = binary.LittleEndian.AppendUint32(body, 0) // expert
	body = binary.LittleEndian.AppendUint64(body, 1) // seq
	body = binary.LittleEndian.AppendUint32(body, 0) // text len
	body = binary.LittleEndian.AppendUint32(body, 1) // tensor count
	body = binary.LittleEndian.AppendUint32(body, rows)
	body = binary.LittleEndian.AppendUint32(body, cols)
	body = append(body, enc)
	body = append(body, make([]byte, payload)...)
	return body
}

// TestDecodeRejectsOverflowingTensorHeaders: hostile rows/cols values
// whose product overflows int (or whose byte count overflows when scaled
// by the element width) must be rejected up front — decoding must neither
// pass the bound check via wraparound nor attempt a multi-GiB allocation.
func TestDecodeRejectsOverflowingTensorHeaders(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols uint32
		enc        byte
	}{
		// rows*cols = 2^60; ×8 bytes overflows int64 to a negative count,
		// which slipped past the old `off+width*n > len(body)` check and
		// then hit a 2^63-byte make.
		{"product-overflows-byte-count", 1 << 30, 1 << 30, 0},
		{"product-overflows-byte-count-half", 1 << 30, 1 << 30, 1},
		// rows*cols = 2^62 ≈ int64 max / 2; ×8 wraps around.
		{"near-max-product", 1 << 31, 1 << 31, 0},
		// Max uint32 in both dimensions.
		{"max-uint32-dims", 0xFFFFFFFF, 0xFFFFFFFF, 0},
		// Modest product, but still far larger than the body: must not
		// allocate gigabytes before noticing.
		{"multi-GiB-claim", 1 << 20, 1 << 10, 0},
		{"huge-single-dim", 0xFFFFFFFF, 1, 1},
		// int8: the per-row scale block alone (8 bytes per claimed row)
		// overruns the body; must be caught before 8*rows overflows or a
		// huge value-count allocation happens.
		{"int8-scale-block-overrun", 1 << 28, 1, 2},
		{"int8-product-overflow", 1 << 30, 1 << 30, 2},
		{"int8-max-dims", 0xFFFFFFFF, 0xFFFFFFFF, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rejectDecode(t, adversarialTensorFrame(tc.rows, tc.cols, tc.enc, 16), "hostile header")
		})
	}
}

// TestDecodeAcceptsDegenerateTensors: zero-row/zero-col tensors are legal
// (they carry no data) and must keep round-tripping after the hostile-
// header hardening.
func TestDecodeAcceptsDegenerateTensors(t *testing.T) {
	for _, m := range []*Message{
		{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 0, Cols: 5, Data: []float64{}}}},
		{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 5, Cols: 0, Data: []float64{}}}},
		{Type: MsgForwardMulti, Tensors: []Matrix{{Rows: 0, Cols: 0, Data: []float64{}}}},
	} {
		got := mustDecode(t, mustEncode(t, m)[4:])
		if len(got.Tensors) != 1 || len(got.Tensors[0].Data) != 0 {
			t.Fatalf("degenerate tensor mangled: %+v", got.Tensors)
		}
	}
}

// FuzzDecode throws arbitrary bodies at the pooled decoder (the one TCP
// Recv runs): it must never panic or allocate unboundedly, rejected
// bodies must leave the pools usable, and everything it accepts must
// re-encode.
func FuzzDecode(f *testing.F) {
	f.Add(mustEncode(f, &Message{Type: MsgStep})[4:])
	f.Add(mustEncode(f, &Message{Type: MsgError, Text: "boom"})[4:])
	f.Add(mustEncode(f, &Message{Type: MsgForwardMulti, Layer: 1, Expert: 2, Seq: 3,
		Tensors: []Matrix{{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}}})[4:])
	f.Add(mustEncode(f, &Message{Type: MsgBackwardMulti,
		Tensors: []Matrix{{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}, Enc: EncFP16}}})[4:])
	f.Add(mustEncode(f, &Message{Type: MsgForwardMulti,
		Tensors: []Matrix{{Rows: 2, Cols: 4, Data: []float64{1, -2, 3, -4, 5, -6, 7, -8}, Enc: EncInt8}}})[4:])
	// Coalesced multi-tensor frame: id row + two batches in mixed encodings.
	f.Add(mustEncode(f, &Message{Type: MsgForwardMulti, Layer: 1, Expert: ExpertCoalesced, Seq: 5,
		Tensors: []Matrix{
			{Rows: 1, Cols: 2, Data: []float64{3, 7}},
			{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}, Enc: EncInt8},
			{Rows: 1, Cols: 2, Data: []float64{5, 6}, Enc: EncFP16},
		}})[4:])
	f.Add(adversarialTensorFrame(1<<30, 1<<30, 0, 16))
	f.Add(adversarialTensorFrame(0xFFFFFFFF, 2, 1, 64))
	// int8 scale-block bounds: the 8-byte-per-row scale block alone
	// overruns the body.
	f.Add(adversarialTensorFrame(1<<28, 1, 2, 64))
	f.Add(adversarialTensorFrame(0xFFFFFFFF, 0xFFFFFFFF, 2, 64))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodePooled(body)
		if err != nil {
			return
		}
		defer Release(m)
		// Accepted frames must be internally consistent and re-encodable
		// (AppendFrame rejects rows×cols ≠ len(data)).
		for i, tr := range m.Tensors {
			if tr.Rows*tr.Cols != len(tr.Data) {
				t.Fatalf("tensor %d inconsistent: %dx%d with %d values", i, tr.Rows, tr.Cols, len(tr.Data))
			}
		}
		if _, err := AppendFrame(nil, m); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
	})
}
