// Parallel compute engine: a persistent worker pool, the sharding
// primitives over it, and the destination-passing ("Into") kernel entry
// points that let hot paths reuse output buffers across steps. The GEMM
// driver and its tile kernel are in gemm.go.
//
// Determinism contract: every parallel kernel partitions its OUTPUT into
// contiguous ranges, each owned by exactly one goroutine, and computes
// each output element with the operation sequence the serial kernel uses.
// Parallel results are therefore bit-identical to serial results for any
// parallelism degree. Tests pin this with testutil.BitEqual.
//
// Two grains, one degree (Parallelism): parallelFor splits ONE kernel's
// output over the pool, and its shards are leaf loops that may not start
// anything parallel (a pool task waiting on a pool slot can deadlock).
// Fanout runs n INDEPENDENT jobs — a layer's experts — on goroutines of
// its own, so a job may call kernels freely; what may not nest is Fanout
// inside Fanout. A job owns its state outright, which is the same
// one-owner rule, so the degree is as invisible there as here.
package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelThreshold is the default minimum kernel cost below which
// kernels stay on the serial fast path: waking a parked pool worker costs
// more than the shard it would take over. The work unit is about 0.4 ns of
// one core — a scalar multiply-add, or one touched element of an
// elementwise op; the AVX2 tile counts four multiply-adds to the unit
// (tileMAddsPerUnit).
//
// Re-derived when the tile kernel replaced the scalar row kernels, from
// BenchmarkParallelCutOver on 2 hardware threads, serial → 2 shards:
//
//	AVX2 tile      128×128×128 (2.1M madds) 150 → 177 µs   128×128×352 (5.8M) 412 → 342 µs
//	portable tile  32×128×352 (1.4M)        534 → 580 µs   128×128×128 (2.1M) 749 → 515 µs
//	AddInto        2^19 elements            433 → 424 µs   2^20 elements      807 → 614 µs
//
// The old value, 1<<15, is one 32³ attention-head product: 3 µs of work.
const DefaultParallelThreshold = 1 << 20

var (
	// parDegree is the configured shard count; <=0 selects GOMAXPROCS.
	parDegree atomic.Int64
	// parThreshold is the serial-fast-path cutoff in work units.
	parThreshold atomic.Int64

	// engine is the persistent worker pool. Workers are started once,
	// sized from GOMAXPROCS at first parallel kernel, and live for the
	// process lifetime; SetParallelism changes only how many shards a
	// kernel is split into, not the pool size.
	engine struct {
		once sync.Once
		ch   chan func()
	}
)

func init() { parThreshold.Store(DefaultParallelThreshold) }

func startEngine() {
	n := runtime.GOMAXPROCS(0)
	engine.ch = make(chan func(), n)
	for i := 0; i < n; i++ {
		//lint:ignore goleak process-lifetime worker pool: one goroutine per CPU draining the shared task channel
		go func() {
			for f := range engine.ch {
				f()
			}
		}()
	}
}

// SetParallelism sets how many shards parallel kernels split their output
// into. n <= 0 restores the default (GOMAXPROCS at call time); n == 1
// forces fully serial execution. Results are bit-identical for every
// setting. Safe for concurrent use.
func SetParallelism(n int) {
	parDegree.Store(int64(n))
}

// Parallelism returns the effective shard count parallel kernels use.
func Parallelism() int {
	if d := parDegree.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelThreshold sets the minimum kernel cost (work units — see
// DefaultParallelThreshold) that takes the parallel path. w <= 0 restores
// the default.
func SetParallelThreshold(w int) {
	if w <= 0 {
		w = DefaultParallelThreshold
	}
	parThreshold.Store(int64(w))
}

// ParallelThreshold returns the current serial-fast-path cutoff.
func ParallelThreshold() int { return int(parThreshold.Load()) }

// Serial reports whether a kernel split over n shards costing work units
// would run entirely on the calling goroutine. Kernel entry points (and
// hot per-step loops in nn) check it BEFORE constructing the parallel
// closure: a func literal passed to parallelFor escapes to the worker
// pool regardless of which branch runs, so branching first is what makes
// the serial fast path zero-allocation.
func Serial(n, work int) bool {
	return Parallelism() <= 1 || n <= 1 || int64(work) < parThreshold.Load()
}

// SerialRange is Serial with ParallelRange's default elementwise work
// weighting; pair it with ParallelRange the way Serial pairs with
// ParallelRangeCost.
func SerialRange(n int) bool { return Serial(n, 4*n) }

// parallelFor runs fn over contiguous sub-ranges covering [0, n). work is
// the total kernel cost in work units; below the threshold, or when the
// effective parallelism is 1, fn runs serially as fn(0, n). fn must not
// itself invoke a parallel kernel (leaf loops only) — a nested call could
// wait on pool slots its own caller occupies.
func parallelFor(n, work int, fn func(lo, hi int)) {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 || int64(work) < parThreshold.Load() {
		fn(0, n)
		return
	}
	engine.once.Do(startEngine)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		lo, hi := lo, hi
		engine.ch <- func() {
			defer wg.Done()
			fn(lo, hi)
		}
	}
	// The caller computes the first shard itself instead of idling.
	fn(0, chunk)
	wg.Wait()
}

// ParallelRange runs fn over contiguous sub-ranges covering [0, n) on the
// worker pool, falling back to a single serial call below the threshold.
// Deterministic as long as fn writes only indices inside its range (each
// element then has exactly one owner). For elementwise per-step loops —
// activation functions, optimizer updates — that cannot be phrased as a
// single kernel call. fn must not invoke parallel kernels itself.
func ParallelRange(n int, fn func(lo, hi int)) {
	// Elementwise bodies behind this entry point (silu, AdamW) cost a few
	// flops per element; weight the work accordingly.
	parallelFor(n, 4*n, fn)
}

// ParallelRangeCost is ParallelRange with an explicit total work estimate,
// for loops whose per-index cost is far from constant-small (e.g. a row
// loop where each index touches a full feature vector).
func ParallelRangeCost(n, work int, fn func(lo, hi int)) {
	parallelFor(n, work, fn)
}

// Fanout runs fn(i) once for every i in [0, n) on up to Parallelism()
// goroutines: the caller plus helpers started for this call and joined
// before it returns (never the pool — see the package comment for what
// may nest). Indices are handed out one at a time, because the jobs — a
// layer's experts over their routed batches — are uneven. fn(i) must
// touch only job i's state. A panic in any fn stops the hand-out and is
// re-raised on the caller once every helper has returned.
func Fanout(n int, fn func(i int)) {
	p := min(Parallelism(), n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	drain := func() {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				panicked.CompareAndSwap(nil, &r)
			}
		}()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	}
	wg.Add(p - 1)
	for g := 1; g < p; g++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

// mustNotAlias panics when dst shares backing storage with an operand.
// Views made by Reshape share the same backing array, so comparing the
// first element address catches every sharing mode New/Reshape can create.
func mustNotAlias(dst, src *Tensor, op string) {
	if len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0] {
		panic(fmt.Sprintf("tensor: %s destination aliases an operand", op))
	}
}

// ---- destination-passing kernel entry points ----

// MatMulInto writes t @ o into dst ([n,k] @ [k,m] -> [n,m]) and returns
// dst. dst may be dirty (every element is overwritten) but must not share
// storage with t or o.
func (t *Tensor) MatMulInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	n, k := t.shape[0], t.shape[1]
	k2, m := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v @ %v", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "matmul")
	mustNotAlias(dst, o, "matmul")
	gemm(dst.Data, t.Data, o.Data, n, k, m, k, 1, false)
	return dst
}

// MatMulTInto writes t @ oᵀ into dst ([n,k] @ [m,k]ᵀ -> [n,m]) and
// returns dst. Same dirty-destination / no-alias contract as MatMulInto.
func (t *Tensor) MatMulTInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	n, k := t.shape[0], t.shape[1]
	m, k2 := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %v @ %vᵀ", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: matmulT dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "matmulT")
	mustNotAlias(dst, o, "matmulT")
	// A is t as it lies; each k×8 panel of B = oᵀ is packed from eight rows
	// of o (packPanelT), so p stays the tile's serial loop and nothing is
	// transposed.
	gemm(dst.Data, t.Data, o.Data, n, k, m, k, 1, true)
	return dst
}

// TMatMulInto writes tᵀ @ o into dst ([k,n]ᵀ @ [k,m] -> [n,m]) and
// returns dst. Same dirty-destination / no-alias contract as MatMulInto.
func (t *Tensor) TMatMulInto(o, dst *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	dst.must2D()
	k, n := t.shape[0], t.shape[1]
	k2, m := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch %vᵀ @ %v", t.shape, o.shape))
	}
	if dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: tmatmul dst shape %v, want [%d %d]", dst.shape, n, m))
	}
	mustNotAlias(dst, t, "tmatmul")
	mustNotAlias(dst, o, "tmatmul")
	gemm(dst.Data, t.Data, o.Data, n, k, m, 1, n, false)
	return dst
}

// transposeBlock is the tile edge for the cache-blocked transpose: 32×32
// float64 tiles (two 8 KiB operand footprints) keep both the row-major
// reads and the column-major writes inside L1.
const transposeBlock = 32

// TransposeInto writes tᵀ into dst ([n,m] -> [m,n]) using cache-blocked
// tiles, and returns dst. dst may be dirty but must not share storage
// with t.
func (t *Tensor) TransposeInto(dst *Tensor) *Tensor {
	t.must2D()
	dst.must2D()
	n, m := t.shape[0], t.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: transpose dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	mustNotAlias(dst, t, "transpose")
	jBlocks := (m + transposeBlock - 1) / transposeBlock
	// Partition over tile columns of t (= row blocks of dst), so each dst
	// row has exactly one owner.
	if Serial(jBlocks, n*m) {
		transposeTiles(dst.Data, t.Data, 0, jBlocks, n, m)
		return dst
	}
	parallelFor(jBlocks, n*m, func(blo, bhi int) {
		transposeTiles(dst.Data, t.Data, blo, bhi, n, m)
	})
	return dst
}

// transposeTiles transposes the tile columns [blo, bhi) of the [n,m]
// source a into r ([m,n]), walking transposeBlock×transposeBlock tiles.
func transposeTiles(r, a []float64, blo, bhi, n, m int) {
	for jb := blo; jb < bhi; jb++ {
		j0, j1 := jb*transposeBlock, (jb+1)*transposeBlock
		if j1 > m {
			j1 = m
		}
		for i0 := 0; i0 < n; i0 += transposeBlock {
			i1 := i0 + transposeBlock
			if i1 > n {
				i1 = n
			}
			for i := i0; i < i1; i++ {
				row := a[i*m : (i+1)*m]
				for j := j0; j < j1; j++ {
					r[j*n+i] = row[j]
				}
			}
		}
	}
}

// AddInto writes t + o elementwise into dst and returns dst. dst may
// alias t or o (pure elementwise).
func (t *Tensor) AddInto(o, dst *Tensor) *Tensor {
	t.mustSameShape(o)
	t.mustSameShape(dst)
	td, od, dd := t.Data, o.Data, dst.Data
	if Serial(len(td), len(td)) {
		addRange(dd, td, od, 0, len(td))
		return dst
	}
	parallelFor(len(td), len(td), func(lo, hi int) {
		addRange(dd, td, od, lo, hi)
	})
	return dst
}

// addRange writes r[i] = a[i] + b[i] for i in [lo, hi).
func addRange(r, a, b []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = a[i] + b[i]
	}
}

// ScaleInto writes alpha*t elementwise into dst and returns dst. dst may
// alias t.
func (t *Tensor) ScaleInto(alpha float64, dst *Tensor) *Tensor {
	t.mustSameShape(dst)
	td, dd := t.Data, dst.Data
	if Serial(len(td), len(td)) {
		scaleRange(dd, td, alpha, 0, len(td))
		return dst
	}
	parallelFor(len(td), len(td), func(lo, hi int) {
		scaleRange(dd, td, alpha, lo, hi)
	})
	return dst
}

// scaleRange writes r[i] = alpha * a[i] for i in [lo, hi).
func scaleRange(r, a []float64, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] = alpha * a[i]
	}
}

// SoftmaxRowsInto writes the numerically stable row-wise softmax of the
// 2-D tensor t into dst and returns dst. dst may alias t (rows are
// independent and processed in place).
func (t *Tensor) SoftmaxRowsInto(dst *Tensor) *Tensor {
	t.must2D()
	t.mustSameShape(dst)
	rows, cols := t.shape[0], t.shape[1]
	// exp dominates: weight each element as several work units.
	if Serial(rows, 8*rows*cols) {
		softmaxRows(dst, t, 0, rows)
		return dst
	}
	parallelFor(rows, 8*rows*cols, func(lo, hi int) {
		softmaxRows(dst, t, lo, hi)
	})
	return dst
}

// softmaxRows softmaxes rows [lo, hi) of a into r.
func softmaxRows(r, a *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		SoftmaxInto(r.Row(i), a.Row(i))
	}
}
