//go:build !purego

package tensor

import (
	"slices"

	"repro/internal/cpu"
)

// tile selects the body, once, at init: the widest the CPU has.
var tile = slices.Max(tileBodies())

// tileBodies lists the bodies this CPU can run, narrowest first.
func tileBodies() []tileBody {
	bodies := []tileBody{tileGo}
	if cpu.HasAVX2 {
		bodies = append(bodies, tileAVX2)
	}
	if cpu.HasAVX512 {
		bodies = append(bodies, tileAVX512)
	}
	return bodies
}

//go:noescape
func gemmTileAVX2(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)

//go:noescape
func gemmTileAVX512(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)

// tileMAddsPerUnit is how many multiply-adds the selected body retires in
// one of DefaultParallelThreshold's work units (≈0.4 ns: one scalar
// multiply-add, one element of an elementwise loop). The AVX2 body takes
// 0.08 ns each; see tileAVX512 for why the AVX-512 body keeps its 4.
func tileMAddsPerUnit() int {
	if tile == tileGo {
		return 1
	}
	return 4
}

// gemmTile computes one 4×8 tile under the contract in gemm.go.
func gemmTile(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	if tile == tileGo {
		gemmTileGo(k, a, sa0, sa1, bp, c, ldc)
		return
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a driver bug panics instead of corrupting memory.
	_ = a[(tileRows-1)*sa0+(k-1)*sa1]
	_ = bp[k*tileCols-1]
	_ = c[(tileRows-1)*ldc+tileCols-1]
	if tile == tileAVX512 {
		gemmTileAVX512(k, &a[0], sa0, sa1, &bp[0], &c[0], ldc)
		return
	}
	gemmTileAVX2(k, &a[0], sa0, sa1, &bp[0], &c[0], ldc)
}
