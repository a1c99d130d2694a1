//go:build !purego

package nn

import "repro/internal/cpu"

// useAdamWAVX512 selects the AVX-512 body, once, at init.
var useAdamWAVX512 = cpu.HasAVX512

// adamwCoef is one step's AdamW coefficients as the AVX-512 body reads
// them, each broadcast to eight lanes: 1−β1 and 1−β2 are rounded here, in
// Go, exactly as adamwRange's (1-c.Beta1) and (1-c.Beta2) are.
type adamwCoef struct {
	b1, c1, b2, c2, bc1, bc2, lr, eps, wd float64
}

//go:noescape
func adamwAVX512(w, grad, m, v *float64, n int, k *adamwCoef)

// adamwVec applies the update to the longest prefix of whole groups of
// eight elements and returns its length: 0 without the AVX-512 body.
func adamwVec(w, g, m, v []float64, c AdamWConfig, bc1, bc2 float64) int {
	n := len(w) &^ 7
	if !useAdamWAVX512 || n == 0 {
		return 0
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a caller bug panics instead of corrupting memory.
	_, _, _ = g[n-1], m[n-1], v[n-1]
	k := adamwCoef{c.Beta1, 1 - c.Beta1, c.Beta2, 1 - c.Beta2, bc1, bc2, c.LR, c.Eps, c.WeightDecay}
	adamwAVX512(&w[0], &g[0], &m[0], &v[0], n, &k)
	return n
}
