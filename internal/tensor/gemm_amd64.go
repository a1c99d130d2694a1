//go:build !purego

package tensor

import (
	"slices"

	"repro/internal/cpu"
)

// tile selects the body, once, at init: the widest the CPU has.
var tile = slices.Max(tileBodies())

// tileBodies lists the bodies this CPU can run, narrowest first. The
// assembly bodies are fused multiply-add chains, so each needs FMA3 as
// well as its vector width (HasAVX512 implies both).
func tileBodies() []tileBody {
	bodies := []tileBody{tileGo}
	if cpu.HasAVX2 && cpu.HasFMA {
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

//go:noescape
func gemmTile2AVX512(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)

// tileMAddsPerUnit is how many multiply-adds the selected body retires in
// one of DefaultParallelThreshold's work units (≈0.4 ns: one scalar
// multiply-add, one element of an elementwise loop). See tileAVX512 for
// why both assembly bodies count 4.
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

// gemmTile2 computes the tiles of two adjacent full panels, the second
// packed at bp[8k:], into columns [0, 16) of c: one 4×16 call on the
// AVX-512 body, two tiles on the others.
func gemmTile2(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	if tile != tileAVX512 {
		gemmTile(k, a, sa0, sa1, bp, c, ldc)
		gemmTile(k, a, sa0, sa1, bp[k*tileCols:], c[tileCols:], ldc)
		return
	}
	_ = a[(tileRows-1)*sa0+(k-1)*sa1]
	_ = bp[2*k*tileCols-1]
	_ = c[(tileRows-1)*ldc+2*tileCols-1]
	gemmTile2AVX512(k, &a[0], sa0, sa1, &bp[0], &c[0], ldc)
}
