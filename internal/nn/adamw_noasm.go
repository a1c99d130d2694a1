//go:build !amd64 || purego

package nn

// useAdamWAVX512 is never set in this build, which has no vector body.
var useAdamWAVX512 bool

// adamwVec: this build has no vector body; the update is all scalar.
func adamwVec(w, g, m, v []float64, c AdamWConfig, bc1, bc2 float64) int { return 0 }
