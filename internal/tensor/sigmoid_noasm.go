//go:build !amd64 || purego

package tensor

// sigmoidVec: this build has no vector body; Sigmoid is all scalar.
func sigmoidVec(dst, z []float64) int { return 0 }

// expVec: this build has no vector body; expInto is all scalar.
func expVec(dst, x []float64) int { return 0 }
