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

// The assembly bodies: the tiles of tiles row tiles of one panel, or of
// two adjacent panels (the second at bstep elements after the first),
// under the contract in gemm.go, each landed under the epilogue (α, acc).
// Strides are in elements.

//go:noescape
func gemmStripAVX2(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb int, c *float64, ldc int, alpha float64, acc bool)

//go:noescape
func gemmStripAVX512(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb int, c *float64, ldc int, alpha float64, acc bool)

//go:noescape
func gemmStrip2AVX512(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb, bstep int, c *float64, ldc int, alpha float64, acc bool)

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

// gemmStrip lands the tiles of rows [0, 4·tiles) of np (1 or 2)
// adjacent panels in c under the contract and epilogue in gemm.go: row p
// of panel h of B is b[h·bstep+p·ldb:][:8]. The AVX-512 body computes a
// pair as one 4×16 block, whose eight accumulators hide the multiply-add
// latency that four would expose, and a single panel eight rows at a
// time for the same reason; the AVX2 body's 4×8 tile already has eight.
// The AVX2 body runs a pair as two strips.
func gemmStrip(np, tiles, k int, a []float64, sa0, sa1 int, b []float64, ldb, bstep int, c []float64, ldc int, ep epilogue) {
	if tile == tileGo {
		gemmStripGo(np, tiles, k, a, sa0, sa1, b, ldb, bstep, c, ldc, ep)
		return
	}
	if tiles == 0 {
		return
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a driver bug panics instead of corrupting memory.
	_ = a[(tiles*tileRows-1)*sa0+(k-1)*sa1]
	_ = b[(np-1)*bstep+(k-1)*ldb+tileCols-1]
	_ = c[(tiles*tileRows-1)*ldc+np*tileCols-1]
	switch {
	case tile == tileAVX512 && np == 2:
		gemmStrip2AVX512(k, tiles, &a[0], sa0, sa1, &b[0], ldb, bstep, &c[0], ldc, ep.alpha, ep.acc)
	case tile == tileAVX512:
		gemmStripAVX512(k, tiles, &a[0], sa0, sa1, &b[0], ldb, &c[0], ldc, ep.alpha, ep.acc)
	default:
		for h := 0; h < np; h++ {
			gemmStripAVX2(k, tiles, &a[0], sa0, sa1, &b[h*bstep], ldb, &c[h*tileCols], ldc, ep.alpha, ep.acc)
		}
	}
}
