package wire

// Rule-4 fixtures: make/new inside the wire codec hot-path functions is a
// finding even when the size is a harmless constant — the invariant is
// zero per-frame allocation, not overflow safety. Sizes here are
// parameters or constants so rule 1 (decoded-header taint) stays quiet
// and the diagnostics below belong to rule 4 alone.

// getBuf stands in for the pool allocator; calls to it are always legal
// in hot paths.
func getBuf(n int) []byte { return nil }

type message struct {
	tensors []Matrix
}

// AppendFrame is a hot-path encoder: its scratch must come from the pool
// or the caller's destination.
func AppendFrame(dst []byte, m *message) []byte {
	scratch := make([]byte, 64) // want "make in wire codec hot path AppendFrame"
	_ = scratch
	hdr := new(Matrix) // want "new in wire codec hot path AppendFrame"
	_ = hdr
	dst = append(dst, 0) // append is the destination-passing idiom: legal
	return dst
}

// decodeBody draws payloads from an injected allocator, never directly.
func decodeBody(body []byte, alloc func(int) []float64) []float64 {
	buf := getBuf(16) // pool getter: legal
	_ = buf
	vals := alloc(8)          // injected allocator: legal
	tmp := make([]float64, 4) // want "make in wire codec hot path decodeBody"
	_ = tmp
	return vals
}

// Release returns buffers to the pools; allocating inside it defeats the
// point.
func Release(m *message) {
	m.tensors = make([]Matrix, 0) // want "make in wire codec hot path Release"
}

// AppendFloat64s is the exported float64 block writer the checkpoint
// codec shares with the frame encoder: growing the caller's destination
// is legal, a private staging buffer is not.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	staging := make([]byte, 8*len(vals)) // want "make in wire codec hot path AppendFloat64s"
	return append(dst, staging...)
}

// DecodeFloat64s fills the caller's destination and allocates nothing.
func DecodeFloat64s(src []byte, dst []float64) {
	tmp := new([8]byte) // want "new in wire codec hot path DecodeFloat64s"
	_ = tmp
}

// encodeColdPath is NOT in the hot-path list: allocation is fine here.
func encodeColdPath(m *message) []byte {
	return make([]byte, 128)
}
