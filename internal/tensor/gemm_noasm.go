//go:build !amd64 || purego

package tensor

// tile is the portable body, the only one this build has.
var tile = tileGo

// tileBodies lists the bodies this build can run.
func tileBodies() []tileBody { return []tileBody{tileGo} }

// tileMAddsPerUnit: the portable body's multiply-add is the work unit of
// DefaultParallelThreshold.
func tileMAddsPerUnit() int { return 1 }

// gemmStrip lands the tiles of rows [0, 4·tiles) of np adjacent panels
// in c under the contract and epilogue in gemm.go.
func gemmStrip(np, tiles, k int, a []float64, sa0, sa1 int, b []float64, ldb, bstep int, c []float64, ldc int, ep epilogue) {
	gemmStripGo(np, tiles, k, a, sa0, sa1, b, ldb, bstep, c, ldc, ep)
}
