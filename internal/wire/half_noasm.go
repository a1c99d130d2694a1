//go:build !amd64 || purego

package wire

// encodeHalfVec and decodeHalfVec: without the F16C body every value
// takes the portable conversion.
func encodeHalfVec(dst []byte, src []float64) int { return 0 }

func decodeHalfVec(dst []float64, src []byte) int { return 0 }
