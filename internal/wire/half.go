package wire

import "math"

// IEEE 754 binary16 (half precision) conversion, used by the optional
// compressed payload encoding: the paper's systems exchange expert
// features at 16-bit depth, and enabling half-precision framing makes the
// reproduction's on-wire byte counts match its logical accounting.
//
// The conversion is round-to-nearest-even, with the usual flush of
// out-of-range magnitudes to ±Inf and preservation of NaN.

// Float64ToHalf converts v to its binary16 representation.
func Float64ToHalf(v float64) uint16 {
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

// HalfToFloat64 converts a binary16 value back to float64.
func HalfToFloat64(h uint16) float64 {
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

// HalfDecode unpacks binary16 little-endian bytes into float64s.
func HalfDecode(src []byte, dst []float64) {
	for i := range dst {
		h := uint16(src[2*i]) | uint16(src[2*i+1])<<8
		dst[i] = HalfToFloat64(h)
	}
}

// QuantizeHalfInPlace rounds every value to its nearest binary16 —
// exactly the loss the half wire encoding introduces. Transports that
// skip serialization (the in-process pipe) use it so half-precision
// behaviour is identical regardless of transport; it is idempotent, so a
// subsequent encode/decode over TCP adds no further loss.
func QuantizeHalfInPlace(v []float64) {
	for i := range v {
		v[i] = HalfToFloat64(Float64ToHalf(v[i]))
	}
}
