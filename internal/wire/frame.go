package wire

// FrameEncoder encodes messages into reusable scatter-gather segments for
// a writev-capable writer (net.Buffers): one pooled head segment carrying
// the length prefix, message header and tensor count, then one pooled
// segment per tensor (tensor header + encoded payload). Compared to
// AppendFrame this never assembles the monolithic frame, so a
// multi-tensor dispatch goes out without the single large copy.
//
// Segments are valid until Release, which must be called after the write
// completes and before the next Encode. Callers passing the returned
// slice to net.Buffers.WriteTo must hand it a copy of the slice header
// (WriteTo consumes — and nils out — the entries of the slice it is
// given, which would leak the pooled segments past Release).
type FrameEncoder struct {
	segs [][]byte
}

// Encode frames m into scatter-gather segments and returns them together
// with the total frame size (length prefix included). The segments remain
// owned by the encoder; Release recycles them.
func (f *FrameEncoder) Encode(m *Message) ([][]byte, int, error) {
	if err := validateTensors(m); err != nil {
		return nil, 0, err
	}
	total := sizeOf(m)
	// Head segment: length prefix + structural header.
	headLen := 4 + 1 + 4 + 4 + 8 + 4 + len(m.Text) + 4
	head := GetBuf(headLen)[:0]
	head = appendHeader(binaryPrefix(head, total-4), m)
	f.segs = append(f.segs[:0], head)
	for i := range m.Tensors {
		t := &m.Tensors[i]
		seg := GetBuf(9 + t.Enc.payloadBytes(t.Rows, len(t.Data)))[:0]
		f.segs = append(f.segs, appendTensor(seg, t))
	}
	return f.segs, total, nil
}

// Release returns every segment of the last Encode to the buffer pool.
func (f *FrameEncoder) Release() {
	for i, s := range f.segs {
		PutBuf(s)
		f.segs[i] = nil
	}
	f.segs = f.segs[:0]
}

// binaryPrefix appends the 4-byte little-endian length prefix.
func binaryPrefix(dst []byte, bodyLen int) []byte {
	return append(dst,
		byte(bodyLen), byte(bodyLen>>8), byte(bodyLen>>16), byte(bodyLen>>24))
}
