package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// nowNano is a tiny wrapper so the speedup benchmark reads as arithmetic
// on nanoseconds.
func nowNano() int64 { return time.Now().UnixNano() }

// reportGFLOPs adds the kernel rate to a GEMM benchmark: 2·n·k·m
// floating-point operations per product.
func reportGFLOPs(b *testing.B, n, k, m int) {
	b.ReportMetric(2*float64(n)*float64(k)*float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchGEMM times GEMM on an [n,k]·[k,m] product, "MatMul" (a·b),
// "MatMulT" (a·bᵀ) or "TMatMul" (aᵀ·b), at the given parallel degree
// (0 = default) into a reused destination.
func benchGEMM(b *testing.B, op string, n, k, m, degree int) {
	old := Parallelism()
	SetParallelism(degree)
	b.Cleanup(func() { SetParallelism(old) })
	rng := rand.New(rand.NewSource(1))
	dst := Zeros(n, m)
	aT, bT := op == "TMatMul", op == "MatMulT"
	x, y := Randn(rng, 1, n, k), Randn(rng, 1, k, m)
	if aT {
		x = Randn(rng, 1, k, n)
	}
	if bT {
		y = Randn(rng, 1, m, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM(dst, x, y, aT, bT, 1, false, nil)
	}
	reportGFLOPs(b, n, k, m)
}

func BenchmarkMatMul32(b *testing.B)   { benchGEMM(b, "MatMul", 32, 32, 32, 0) }
func BenchmarkMatMul128(b *testing.B)  { benchGEMM(b, "MatMul", 128, 128, 128, 0) }
func BenchmarkMatMulT128(b *testing.B) { benchGEMM(b, "MatMulT", 128, 128, 128, 0) }

// The expert GEMMs of the step benchmark's compute geometry (d=128,
// h=352, a 32-token expert batch): up/gate projection, down projection,
// the backward dX through the transposed weight, and a ragged 30-row batch.
func BenchmarkMatMulExpertUp(b *testing.B)       { benchGEMM(b, "MatMul", 32, 128, 352, 1) }
func BenchmarkMatMulExpertDown(b *testing.B)     { benchGEMM(b, "MatMul", 32, 352, 128, 1) }
func BenchmarkMatMulTExpertDown(b *testing.B)    { benchGEMM(b, "MatMulT", 32, 128, 352, 1) }
func BenchmarkMatMulExpertUpRagged(b *testing.B) { benchGEMM(b, "MatMul", 30, 128, 352, 1) }

// benchColdWeight times an expert product whose weight operand is never
// cache-resident: it rotates through 24 distinct 128×352 weights (8.6 MB,
// over twice this box's 4 MB of L2), the way one step walks 16 experts ×
// 3 projections. The hot benchmarks above reuse one weight; the step
// sees this one. It multiplies a 32-row x of xCols features by a weight,
// transposed with bT, into dstCols features. With packed set each weight
// owns a Panels, built before the timer starts, as a frozen Linear's are
// during warm-up.
func benchColdWeight(b *testing.B, xCols, dstCols int, packed, bT bool) {
	const n, d, h, weights = 32, 128, 352, 24
	old := Parallelism()
	SetParallelism(1)
	b.Cleanup(func() { SetParallelism(old) })
	rng := rand.New(rand.NewSource(1))
	x, dst := Randn(rng, 1, n, xCols), Zeros(n, dstCols)
	ws := make([]*Tensor, weights)
	for i := range ws {
		ws[i] = Randn(rng, 1, d, h)
	}
	pks := make([]*Panels, weights)
	if packed {
		for i := range pks {
			pks[i] = new(Panels)
			GEMM(dst, x, ws[i], false, bT, 1, false, pks[i])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM(dst, x, ws[i%weights], false, bT, 1, false, pks[i%weights])
	}
	reportGFLOPs(b, n, d, h)
}

// Up projection x·W, and the backward dX = dY·Wᵀ through the same weight,
// packed per product and read from pre-built panels.
func BenchmarkMatMulExpertUpCold(b *testing.B) {
	benchColdWeight(b, 128, 352, false, false)
}
func BenchmarkMatMulTExpertDownCold(b *testing.B) {
	benchColdWeight(b, 352, 128, false, true)
}
func BenchmarkMatMulExpertUpColdPacked(b *testing.B) {
	benchColdWeight(b, 128, 352, true, false)
}
func BenchmarkMatMulTExpertDownColdPacked(b *testing.B) {
	benchColdWeight(b, 352, 128, true, true)
}

// BenchmarkExpertGEMMBodies times the expert products above, serial, with
// each tile body the CPU can run: the rows that size one body against
// another, and tileMAddsPerUnit.
func BenchmarkExpertGEMMBodies(b *testing.B) {
	for _, body := range tileBodies() {
		for _, c := range []struct {
			name string
			run  func(b *testing.B)
		}{
			{"Up", func(b *testing.B) { benchGEMM(b, "MatMul", 32, 128, 352, 1) }},
			{"Down", func(b *testing.B) { benchGEMM(b, "MatMul", 32, 352, 128, 1) }},
			{"TDown", func(b *testing.B) { benchGEMM(b, "MatMulT", 32, 128, 352, 1) }},
			{"UpColdPacked", func(b *testing.B) { benchColdWeight(b, 128, 352, true, false) }},
			{"TDownColdPacked", func(b *testing.B) { benchColdWeight(b, 352, 128, true, true) }},
		} {
			b.Run(body.String()+"/"+c.name, func(b *testing.B) {
				defer func(old tileBody) { tile = old }(tile)
				tile = body
				c.run(b)
			})
		}
	}
}

// BenchmarkParallelCutOver is the measurement DefaultParallelThreshold is
// derived from: the same product serial and split in two, on a ladder of
// sizes either side of the cut-over, with the threshold out of the way.
func BenchmarkParallelCutOver(b *testing.B) {
	for _, s := range [][3]int{{32, 32, 32}, {64, 64, 64}, {32, 128, 128}, {64, 128, 128}, {32, 128, 352}, {128, 128, 128}, {128, 128, 352}, {128, 256, 256}} {
		for _, degree := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%dx%d/shards=%d", s[0], s[1], s[2], degree), func(b *testing.B) {
				SetParallelThreshold(1)
				b.Cleanup(func() { SetParallelThreshold(0) })
				benchGEMM(b, "MatMul", s[0], s[1], s[2], degree)
			})
		}
	}
}

// spinSink keeps spinWork's arithmetic from being optimised away.
var spinSink float64

// spinWork is n dependent multiply-adds: CPU time with no memory traffic.
func spinWork(n int) {
	x := spinSink
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1
	}
	spinSink = x
}

// medianNano is the median of d.
func medianNano(d []int64) float64 {
	s := slices.Clone(d)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// BenchmarkFanoutTwoJobs is the fork-latency probe: two equal jobs of pure
// arithmetic through Fanout at the default degree, timed one call at a
// time, against the same two jobs run back to back on the caller first.
// wall/serial is the median call over the median serial pair: 0.5 means
// the second core joined at once, 1.0 that the caller ran both jobs before
// any help arrived.
func BenchmarkFanoutTwoJobs(b *testing.B) {
	for _, us := range []int{100, 500} {
		b.Run(fmt.Sprintf("%dus", us), func(b *testing.B) {
			const probe = 1 << 16
			t0 := nowNano()
			spinWork(probe)
			iters := int(int64(probe) * int64(us) * 1000 / max(nowNano()-t0, 1))
			job := func(int) { spinWork(iters) }
			serial, wall := make([]int64, 0, b.N), make([]int64, 0, b.N)
			for i := 0; i < max(b.N, 16); i++ {
				t0 := nowNano()
				job(0)
				job(1)
				serial = append(serial, nowNano()-t0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := nowNano()
				Fanout(2, job)
				wall = append(wall, nowNano()-t0)
			}
			b.ReportMetric(medianNano(wall)/medianNano(serial), "wall/serial")
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.SoftmaxRows()
	}
}

func BenchmarkArgTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 8)
	for i := range v {
		v[i] = rng.Float64()
	}
	idx := make([]int, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ArgTopKInto(idx, v)
	}
}

// Paper geometry: the TinyMistral dense projections the trainer actually
// runs — d_model=1024, FFN hidden 2816, per-step token batch 128. These
// are the shapes EXPERIMENTS.md quotes for the engine before/after table.
const (
	benchBatch  = 128
	benchD      = 1024
	benchHidden = 2816
)

func BenchmarkMatMulPaperGeometrySerial(b *testing.B) {
	benchGEMM(b, "MatMul", benchBatch, benchD, benchHidden, 1)
}
func BenchmarkMatMulPaperGeometryParallel(b *testing.B) {
	benchGEMM(b, "MatMul", benchBatch, benchD, benchHidden, 0)
}

// dX = dY·Wᵀ of the up projection, and dW = Xᵀ·dY of the same layer.
func BenchmarkMatMulTPaperGeometrySerial(b *testing.B) {
	benchGEMM(b, "MatMulT", benchBatch, benchHidden, benchD, 1)
}
func BenchmarkTMatMulPaperGeometrySerial(b *testing.B) {
	benchGEMM(b, "TMatMul", benchD, benchBatch, benchHidden, 1)
}

// BenchmarkMatMulPaperGeometrySpeedup times the same kernel serial and
// parallel in one run and reports the ratio as a "speedup" metric, so the
// number survives into BENCH_tensor.json without post-processing. The box
// BENCH_tensor.json is recorded on has 2 vCPUs (the hypervisor does not
// say whether they are two cores or two hardware threads of one), so the
// ratio there tops out at 2: run to run it reads 1.5–2.0.
func BenchmarkMatMulPaperGeometrySpeedup(b *testing.B) {
	old := Parallelism()
	b.Cleanup(func() { SetParallelism(old) })
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 1, benchBatch, benchD)
	w := Randn(rng, 1, benchD, benchHidden)
	dst := Zeros(benchBatch, benchHidden)

	SetParallelism(1)
	serialStart := nowNano()
	const probes = 3
	for i := 0; i < probes; i++ {
		GEMM(dst, x, w, false, false, 1, false, nil)
	}
	serialPer := (nowNano() - serialStart) / probes

	SetParallelism(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM(dst, x, w, false, false, 1, false, nil)
	}
	parallelPer := b.Elapsed().Nanoseconds() / int64(b.N)
	if parallelPer > 0 {
		b.ReportMetric(float64(serialPer)/float64(parallelPer), "speedup")
	}
	reportGFLOPs(b, benchBatch, benchD, benchHidden)
}
