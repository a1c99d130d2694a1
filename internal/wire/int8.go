package wire

import (
	"encoding/binary"
	"math"
)

// Symmetric int8 quantization with one float64 absmax scale per matrix
// row (enc byte 2): q = clamp(round(v/scale), ±127), v' = scale·q. The
// scale travels on the wire, so decode is a single multiply and the chan
// transport's QuantizeInt8InPlace reproduces the TCP round trip
// bit-identically from the same input.
//
// Edge cases: NaN quantizes to 0, ±Inf saturates to ±127 (decoding to
// ±127·scale — large but finite, like fp16's overflow-to-Inf is not an
// option at 8 bits), and a row with no finite non-zero value carries
// scale 0 and decodes to all zeros.

// int8RowScale returns the symmetric quantization scale of one row:
// absmax over the finite values divided by 127.
func int8RowScale(row []float64) float64 {
	absmax := 0.0
	for _, v := range row {
		a := math.Abs(v)
		// NaN fails every comparison and +Inf is excluded explicitly, so
		// only finite magnitudes reach absmax.
		if a > absmax && a != math.Inf(1) {
			absmax = a
		}
	}
	return absmax / 127
}

// quantizeInt8 maps one value onto its int8 code under the given scale.
func quantizeInt8(v, scale float64) int8 {
	switch {
	case math.IsNaN(v):
		return 0
	case v == math.Inf(1):
		return 127
	case v == math.Inf(-1):
		return -127
	case scale == 0:
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// appendInt8Payload appends the int8 wire payload of a rows×cols matrix:
// rows float64 scales (little-endian), then rows·cols value bytes. dst
// must have capacity for the 8·rows+rows·cols bytes appended.
func appendInt8Payload(dst []byte, data []float64, rows, cols int) []byte {
	sOff := len(dst)
	vOff := sOff + 8*rows
	dst = dst[:vOff+rows*cols]
	for r := 0; r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		scale := int8RowScale(row)
		binary.LittleEndian.PutUint64(dst[sOff+8*r:], math.Float64bits(scale))
		out := dst[vOff+r*cols:]
		for c, v := range row {
			out[c] = byte(quantizeInt8(v, scale))
		}
	}
	return dst
}

// decodeInt8Payload expands an int8 wire payload (scales block, then
// value bytes) into dst. src must hold 8·rows+rows·cols bytes.
func decodeInt8Payload(src []byte, dst []float64, rows, cols int) {
	vOff := 8 * rows
	for r := 0; r < rows; r++ {
		scale := math.Float64frombits(binary.LittleEndian.Uint64(src[8*r:]))
		row := dst[r*cols : (r+1)*cols]
		in := src[vOff+r*cols:]
		c := 0
		for ; c+8 <= cols; c += 8 {
			row[c] = scale * float64(int8(in[c]))
			row[c+1] = scale * float64(int8(in[c+1]))
			row[c+2] = scale * float64(int8(in[c+2]))
			row[c+3] = scale * float64(int8(in[c+3]))
			row[c+4] = scale * float64(int8(in[c+4]))
			row[c+5] = scale * float64(int8(in[c+5]))
			row[c+6] = scale * float64(int8(in[c+6]))
			row[c+7] = scale * float64(int8(in[c+7]))
		}
		for ; c < cols; c++ {
			row[c] = scale * float64(int8(in[c]))
		}
	}
}

// quantizeInt8InPlace rounds every value of a rows×cols matrix to exactly
// what the int8 wire encoding reproduces: per row, scale = absmax/127 and
// v' = scale·clamp(round(v/scale), ±127). Transports that skip
// serialization use it so int8 behaviour is bit-identical to a TCP
// encode/decode of the same data.
func quantizeInt8InPlace(data []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		scale := int8RowScale(row)
		for c, v := range row {
			row[c] = scale * float64(quantizeInt8(v, scale))
		}
	}
}
