//go:build !purego

package tensor

import "repro/internal/cpu"

// useAVX2 selects the assembly body, once, at init.
var useAVX2 = cpu.HasAVX2

//go:noescape
func gemmTileAVX2(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)

// tileMAddsPerUnit is how many multiply-adds the selected body retires in
// one of DefaultParallelThreshold's work units (≈0.4 ns: one scalar
// multiply-add, one element of an elementwise loop). The AVX2 body takes
// 0.08 ns each.
func tileMAddsPerUnit() int {
	if useAVX2 {
		return 4
	}
	return 1
}

// gemmTile computes one 4×8 tile under the contract in gemm.go.
func gemmTile(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	if !useAVX2 {
		gemmTileGo(k, a, sa0, sa1, bp, c, ldc)
		return
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a driver bug panics instead of corrupting memory.
	_ = a[(tileRows-1)*sa0+(k-1)*sa1]
	_ = bp[k*tileCols-1]
	_ = c[(tileRows-1)*ldc+tileCols-1]
	gemmTileAVX2(k, &a[0], sa0, sa1, &bp[0], &c[0], ldc)
}
