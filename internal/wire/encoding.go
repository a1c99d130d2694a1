package wire

import "fmt"

// Encoding selects the on-wire representation of a Matrix payload. The
// zero value is full-precision float64, so an unconfigured Matrix frames
// exactly as before the encoding generalization.
type Encoding uint8

// Wire encodings. The byte values are the protocol's tensor-header
// encoding byte and must never be renumbered.
const (
	// EncFP64 ships values as IEEE binary64 (8 bytes each): exact, the
	// reference encoding for bit-identical local-vs-brokered runs.
	EncFP64 Encoding = 0
	// EncFP16 ships values as IEEE binary16 (2 bytes each) — the paper's
	// 16-bit feature exchange, ~3 decimal digits of precision.
	EncFP16 Encoding = 1
	// EncInt8 ships values as symmetric int8 with one float64 absmax
	// scale per matrix row (1 byte per value + 8 bytes per row):
	// per-value error is bounded by scale/2 = rowAbsMax/254.
	EncInt8 Encoding = 2

	numEncodings = 3
)

// valid reports whether e is a known wire encoding.
func (e Encoding) valid() bool { return e < numEncodings }

// String implements fmt.Stringer with the names ParseEncoding accepts.
func (e Encoding) String() string {
	switch e {
	case EncFP64:
		return "fp64"
	case EncFP16:
		return "fp16"
	case EncInt8:
		return "int8"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// ParseEncoding maps a flag value to its Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "fp64", "full", "":
		return EncFP64, nil
	case "fp16", "half":
		return EncFP16, nil
	case "int8":
		return EncInt8, nil
	}
	return EncFP64, fmt.Errorf("wire: unknown encoding %q (want fp64, fp16 or int8)", s)
}

// BitsPerValue returns the value depth of the encoding in bits — the b of
// the paper's D = bHK/8 communication volume. Scale overhead is reported
// separately by ScaleBytesPerRow.
func (e Encoding) BitsPerValue() int {
	switch e {
	case EncFP16:
		return 16
	case EncInt8:
		return 8
	}
	return 64
}

// ScaleBytesPerRow returns the per-row metadata the encoding adds to a
// payload: int8 carries one float64 absmax scale per matrix row.
func (e Encoding) ScaleBytesPerRow() int {
	if e == EncInt8 {
		return 8
	}
	return 0
}

// payloadBytes returns the wire payload size of a rows×cols matrix with n
// values (n = rows·cols for a consistent matrix; callers pass len(Data)
// so a nominal size exists even for inconsistent geometry).
func (e Encoding) payloadBytes(rows, n int) int {
	switch e {
	case EncFP16:
		return 2 * n
	case EncInt8:
		return 8*rows + n
	}
	return 8 * n
}

// Quantize rounds the matrix data in place to exactly the values the
// encoding reproduces after a serialize/deserialize round trip: what the
// peer of any transport.Conn receives. Every transport serializes, so its
// one caller outside wire is the bench harness's reference executor,
// which rounds batches without a wire in between. EncFP64 is a no-op.
func (m *Matrix) Quantize() {
	switch m.Enc {
	case EncFP16:
		QuantizeHalfInPlace(m.Data)
	case EncInt8:
		quantizeInt8InPlace(m.Data, m.Rows, m.Cols)
	}
}
