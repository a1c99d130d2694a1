//go:build !amd64 || purego

package tensor

// tile is the portable body, the only one this build has.
var tile = tileGo

// tileBodies lists the bodies this build can run.
func tileBodies() []tileBody { return []tileBody{tileGo} }

// tileMAddsPerUnit: the portable body's multiply-add is the work unit of
// DefaultParallelThreshold.
func tileMAddsPerUnit() int { return 1 }

// gemmTile computes one 4×8 tile under the contract in gemm.go.
func gemmTile(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	gemmTileGo(k, a, sa0, sa1, bp, c, ldc)
}

// gemmTile2 computes the tiles of two adjacent full panels, the second
// packed at bp[8k:], into columns [0, 16) of c.
func gemmTile2(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	gemmTileGo(k, a, sa0, sa1, bp, c, ldc)
	gemmTileGo(k, a, sa0, sa1, bp[k*tileCols:], c[tileCols:], ldc)
}
