package wire

import (
	"encoding/binary"
	"math"
)

// IEEE 754 binary16 (half precision) conversion, used by the fp16 payload
// encoding: the paper's systems exchange expert features at 16-bit depth,
// and half-precision framing makes the reproduction's on-wire byte counts
// match its logical accounting.
//
// One contract, two bodies. A value is first rounded to float32 (Go's
// float32(v), round-to-nearest-even), then to binary16 with
// round-to-nearest-even, overflow to ±Inf, subnormals kept, and every NaN
// canonicalised to sign|0x7E00. Decoding is exact; a NaN half decodes to
// the quiet float64 NaN that float64(float32) of it would give. The
// F16C body (half_amd64.s) converts eight values per instruction group
// where the CPU has it; Float64ToHalf and HalfToFloat64 below are the
// portable body and convert everything else — the tail of fewer than
// eight values, other architectures, the purego build. Both give the
// same bits for every input (half_test.go holds the reference converter
// they are checked against).

// float64ToHalf converts v to its binary16 representation.
func float64ToHalf(v float64) uint16 {
	f := math.Float32bits(float32(v))
	a := f & 0x7FFFFFFF
	// A normal half: rebias the exponent and round the 13 dropped bits
	// to nearest even. Adding 0xFFF plus the kept mantissa's low bit
	// carries into bit 13 exactly when they exceed half an ulp, or equal
	// it under an odd mantissa; a carry out of the mantissa steps the
	// exponent, up to Inf at 65 520. Larger magnitudes clamp to Inf.
	h := min((a-(127-15)<<23+0xFFF+a>>13&1)>>13, 0x7C00)
	if a < 113<<23 {
		// Zero or subnormal (|v| < 2⁻¹⁴). 0.5 has an ulp of 2⁻²⁴, the
		// half subnormal step, so the float32 adder rounds |v| + 0.5 to
		// nearest even at exactly that step; the sum's mantissa is the
		// half.
		h = math.Float32bits(float32(math.Float32frombits(a)+0.5)) - 126<<23
	}
	if a > 0x7F800000 {
		h = 0x7E00 // NaN, canonical
	}
	return uint16(f>>16)&0x8000 | uint16(h)
}

// halfToFloat64 converts a binary16 value back to float64.
func halfToFloat64(h uint16) float64 {
	sign := uint64(h&0x8000) << 48
	em := uint64(h & 0x7FFF)
	bits := em<<42 + (1023-15)<<52 // normal: rebias the exponent
	switch {
	case em < 0x0400: // ±0 and subnormals: em·2⁻²⁴, exact
		bits = math.Float64bits(float64(em) * 0x1p-24)
	case em >= 0x7C00: // Inf and NaN; a NaN comes back quiet
		bits += (2047 - (31 + 1023 - 15)) << 52 // exponent 31 → 2047
		if em > 0x7C00 {
			bits |= 1 << 51
		}
	}
	return math.Float64frombits(sign | bits)
}

// appendFP16Payload appends vals as binary16, little-endian. dst must
// have capacity. With HalfDecode it is the codec's one pair of block
// conversions: frame payloads and QuantizeHalfInPlace both go through it.
func appendFP16Payload(dst []byte, vals []float64) []byte {
	off := len(dst)
	dst = dst[:off+2*len(vals)]
	b := dst[off:]
	for i := encodeHalfVec(b, vals); i < len(vals); i++ {
		binary.LittleEndian.PutUint16(b[2*i:], float64ToHalf(vals[i]))
	}
	return dst
}

// HalfDecode unpacks binary16 little-endian bytes into float64s.
func HalfDecode(src []byte, dst []float64) {
	src = src[:2*len(dst)]
	for i := decodeHalfVec(dst, src); i < len(dst); i++ {
		dst[i] = halfToFloat64(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// QuantizeHalfInPlace rounds every value to its nearest binary16 —
// exactly the loss the half wire encoding introduces. Matrix.Quantize
// calls it, for the bench harness's reference executor; it is idempotent,
// so a subsequent encode/decode adds no further loss. It converts through
// a stack buffer, a chunk at a time, with the frame codec's own block
// functions.
func QuantizeHalfInPlace(v []float64) {
	var buf [1024]byte
	for len(v) > 0 {
		n := min(len(v), len(buf)/2)
		HalfDecode(appendFP16Payload(buf[:0], v[:n]), v[:n])
		v = v[n:]
	}
}
