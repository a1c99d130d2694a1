//go:build !amd64 || purego

package tensor

// tileMAddsPerUnit: the portable body's multiply-add is the work unit of
// DefaultParallelThreshold.
func tileMAddsPerUnit() int { return 1 }

// gemmTile computes one 4×8 tile under the contract in gemm.go.
func gemmTile(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	gemmTileGo(k, a, sa0, sa1, bp, c, ldc)
}
