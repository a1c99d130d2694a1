// Parallel compute engine: one fork-join team, the two primitives over it,
// and the destination-passing ("Into") kernel entry points that let hot
// paths reuse output buffers across steps. The GEMM driver and its tile
// kernel are in gemm.go.
//
// Determinism contract: every parallel kernel partitions its OUTPUT into
// contiguous ranges, each owned by exactly one goroutine, and computes
// each output element with the operation sequence the serial kernel uses.
// Parallel results are therefore bit-identical to serial results for any
// parallelism degree. Tests pin this with testutil.BitEqual.
//
// Two grains, one degree (Parallelism), one team. A kernel cuts ONE
// output into chunks (split); Fanout runs n INDEPENDENT jobs — a layer's
// experts, an attention layer's heads — one index per chunk. Either way
// the call publishes a task to the team and then runs that task itself:
// the caller claims chunks until none are left and only then waits, and
// only for chunks a helper has already claimed. A helper can therefore
// only speed a task up; one that joins late, or never because it is busy
// inside another job, costs nothing. The same rule makes nesting safe by
// construction — a job may Fanout again or call any kernel — because every
// wait is for a chunk some goroutine is already running to completion.
package tensor

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultParallelThreshold is the default minimum kernel cost below which
// kernels stay on the serial fast path: publishing a task and waiting for
// the helper's share costs more than the share saves. The work unit is
// about 0.4 ns of one core — a scalar multiply-add, or one touched element
// of an elementwise op; the AVX2 tile counts four multiply-adds to the
// unit (tileMAddsPerUnit).
//
// Derived from BenchmarkParallelCutOver on the team, 2 vCPUs, serial → 2
// shards, in two runs (the second is BENCH_tensor.json's):
//
//	AVX2 tile      64×64×64    (65K units)   17 → 31 µs    22 → 14 µs
//	               32×128×128  (131K units)  36 → 29–67    61 → 27
//	               64×128×128  (262K units)  72 → 39–47    84 → 50
//	               128×128×128 (524K units) 151 → 74–84   167 → 110
//	portable tile  64×64×64    (262K units) 165–192 → 85–110
//
// The split won in every run from 1<<18 up. The pool the team replaced
// woke a parked worker per call and lost any split below ≈250 µs (1<<20
// units); that measured the wake, not the work.
const DefaultParallelThreshold = 1 << 18

// spinWindow is how long an idle helper, and a caller whose last chunks
// are still on helpers, polls before it parks. A goroutine readied while
// its waker keeps computing started 58 µs to 1.88 ms (p10/p50) later on a
// 2-vCPU KVM guest — longer than most parallel calls of a training step —
// so a helper that parked between two calls of one step would join
// neither. The window spans the serial stretches between one step's calls
// and no more, because polling holds a processor: other goroutines wait
// for it, and while no processor idles the scheduler fires a busy
// processor's expired timers late (DESIGN.md §11 has the 50 µs and 1 ms
// runs). A constant, not a knob: it hides a scheduler cost no deployment
// setting changes.
const spinWindow = 200 * time.Microsecond

// chunksPerSeat is how many chunks a kernel's output is cut into per
// participant, so a helper that joins after the caller has started still
// finds a share to take.
const chunksPerSeat = 4

var (
	// parDegree is the configured degree; <=0 selects GOMAXPROCS.
	parDegree atomic.Int64
	// parThreshold is the serial-fast-path cutoff in work units.
	parThreshold atomic.Int64

	// team is the set of helpers every parallel call shares. It is started
	// once, sized from GOMAXPROCS at the first parallel call, and lives for
	// the process; SetParallelism changes how many of its members one call
	// may use, not its size.
	team struct {
		once    sync.Once
		helpers int
		mu      sync.Mutex
		open    []*task       // tasks with seats and chunks left, oldest first; guarded by mu
		waiting atomic.Int32  // len(open), for helpers polling without mu
		parked  atomic.Int32  // helpers blocked on wake
		wake    chan struct{} // one token per parked helper a new task wants
	}

	// taskPool recycles task records, so a parallel call allocates nothing.
	taskPool = sync.Pool{New: func() any { return &task{wake: make(chan struct{}, 1)} }}
)

func init() { parThreshold.Store(DefaultParallelThreshold) }

// task is one parallel call: items [0, n) cut into chunks of grain items
// that next hands out. body runs one chunk and reads its operands from the
// task, so a kernel publishes a recycled record, not a closure.
type task struct {
	body     func(p *task, lo, hi int)
	n, grain int
	chunks   int64
	next     atomic.Int64
	seats    int           // helpers that may still join; guarded by team.mu
	inside   atomic.Int32  // 2 per helper inside, +1 while the caller is parked
	wake     chan struct{} // the last helper out wakes a parked caller
	panicked atomic.Pointer[any]

	// Operands: a kernel's buffers and sizes, or the caller's function for
	// ParallelRange and Fanout.
	c, a, b    []float64
	alpha      float64
	rows, k, m int
	sa0, sa1   int
	bT         bool
	span       func(lo, hi int)
	job        func(i int)
}

// newTask returns a recycled task record that runs body.
func newTask(body func(p *task, lo, hi int)) *task {
	p := taskPool.Get().(*task)
	p.body = body
	return p
}

// split runs p over n output items in up to chunksPerSeat contiguous
// chunks per participant. See fork.
func (p *task) split(n int) {
	chunks := min(n, chunksPerSeat*Parallelism())
	p.fork(n, (n+chunks-1)/chunks)
}

// fork runs p over items [0, n) in chunks of grain items, on the caller
// and up to Parallelism()−1 helpers, returns once every chunk has run, and
// recycles p. A panic in any chunk stops the hand-out and is re-raised
// here once every helper has left the task.
func (p *task) fork(n, grain int) {
	team.once.Do(startTeam)
	p.n, p.grain, p.chunks = n, grain, int64((n+grain-1)/grain)
	seats := min(Parallelism(), int(p.chunks), team.helpers+1) - 1
	if seats > 0 {
		publish(p, seats)
	}
	p.drain()
	if seats > 0 {
		withdraw(p)
		p.wait()
	}
	r := p.panicked.Load()
	*p = task{wake: p.wake}
	taskPool.Put(p)
	if r != nil {
		panic(*r)
	}
}

// drain claims and runs chunks until none are left. A panic stops the
// hand-out and is kept for fork to re-raise.
func (p *task) drain() {
	defer func() {
		if r := recover(); r != nil {
			p.next.Store(p.chunks)
			v := r // declared here so only a panic moves it to the heap
			p.panicked.CompareAndSwap(nil, &v)
		}
	}()
	for c := p.next.Add(1) - 1; c < p.chunks; c = p.next.Add(1) - 1 {
		lo := int(c) * p.grain
		p.body(p, lo, min(lo+p.grain, p.n))
	}
}

// wait returns once every helper that joined p has left it: polling for
// spinWindow, then parked until the last one out wakes it.
func (p *task) wait() {
	for start := time.Now(); p.inside.Load() != 0; runtime.Gosched() {
		if time.Since(start) > spinWindow {
			if p.inside.Add(1) != 1 {
				<-p.wake
			}
			return
		}
	}
}

// leave is a helper's exit from p; the last one out wakes a parked caller.
func (p *task) leave() {
	if p.inside.Add(-2) == 1 {
		p.wake <- struct{}{}
	}
}

// publish offers p to the team with seats helper places, and wakes up to
// that many parked helpers.
func publish(p *task, seats int) {
	team.mu.Lock()
	p.seats = seats
	team.open = append(team.open, p)
	team.waiting.Store(int32(len(team.open)))
	team.mu.Unlock()
	for n := min(seats, int(team.parked.Load())); n > 0; n-- {
		select {
		case team.wake <- struct{}{}:
		default:
		}
	}
}

// withdraw stops helpers from joining p.
func withdraw(p *task) {
	team.mu.Lock()
	if i := slices.Index(team.open, p); i >= 0 {
		team.open = slices.Delete(team.open, i, i+1)
		team.waiting.Store(int32(len(team.open)))
	}
	team.mu.Unlock()
}

// claim joins the oldest open task that still has a seat and a chunk to
// hand out, dropping fully handed-out tasks on the way; nil if none.
func claim() *task {
	if team.waiting.Load() == 0 {
		return nil
	}
	team.mu.Lock()
	defer team.mu.Unlock()
	var joined *task
	for i := 0; i < len(team.open) && joined == nil; {
		p := team.open[i]
		if p.next.Load() >= p.chunks {
			team.open = slices.Delete(team.open, i, i+1)
			continue
		}
		p.inside.Add(2)
		if p.seats--; p.seats == 0 {
			team.open = slices.Delete(team.open, i, i+1)
		}
		joined = p
	}
	team.waiting.Store(int32(len(team.open)))
	return joined
}

// idle polls for an open task for spinWindow, yielding the processor
// between polls so other goroutines and this processor's timers still
// run, then parks until a publisher wakes it.
func idle() {
	for start := time.Now(); time.Since(start) < spinWindow; runtime.Gosched() {
		if team.waiting.Load() > 0 {
			return
		}
	}
	team.parked.Add(1)
	if team.waiting.Load() == 0 {
		<-team.wake
	}
	team.parked.Add(-1)
}

func startTeam() {
	team.helpers = runtime.GOMAXPROCS(0) - 1
	team.wake = make(chan struct{}, team.helpers)
	for i := 0; i < team.helpers; i++ {
		//lint:ignore goleak process-lifetime team: GOMAXPROCS−1 helpers that poll for tasks, then park on team.wake
		go func() {
			for {
				if p := claim(); p != nil {
					p.drain()
					p.leave()
				} else {
					idle()
				}
			}
		}()
	}
}

// SetParallelism sets how many goroutines — the caller and team helpers —
// one parallel call may run on at once. n <= 0 restores the default
// (GOMAXPROCS at call time); n == 1 forces fully serial execution. Results
// are bit-identical for every setting. Safe for concurrent use.
func SetParallelism(n int) {
	parDegree.Store(int64(n))
}

// Parallelism returns how many goroutines one parallel call may use.
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
// would run entirely on the calling goroutine. Callers with a closure to
// hand to ParallelRange (the hot per-step loops in nn) check it BEFORE
// constructing the closure: a func literal passed to the team escapes
// regardless of which branch runs, so branching first is what makes the
// serial fast path zero-allocation.
func Serial(n, work int) bool {
	return Parallelism() <= 1 || n <= 1 || int64(work) < parThreshold.Load()
}

// SerialRange is Serial with ParallelRange's default elementwise work
// weighting; pair it with ParallelRange the way Serial pairs with
// ParallelRangeCost.
func SerialRange(n int) bool { return Serial(n, 4*n) }

// ParallelRange runs fn over contiguous sub-ranges covering [0, n) on the
// team, falling back to a single serial call below the threshold.
// Deterministic as long as fn writes only indices inside its range (each
// element then has exactly one owner). For elementwise per-step loops —
// activation functions, optimizer updates — that cannot be phrased as a
// single kernel call.
func ParallelRange(n int, fn func(lo, hi int)) {
	// Elementwise bodies behind this entry point (silu, AdamW) cost a few
	// flops per element; weight the work accordingly.
	ParallelRangeCost(n, 4*n, fn)
}

// ParallelRangeCost is ParallelRange with an explicit total work estimate,
// for loops whose per-index cost is far from constant-small (e.g. a row
// loop where each index touches a full feature vector).
func ParallelRangeCost(n, work int, fn func(lo, hi int)) {
	if Serial(n, work) {
		fn(0, n)
		return
	}
	p := newTask(spanBody)
	p.span = fn
	p.split(n)
}

func spanBody(p *task, lo, hi int) { p.span(lo, hi) }

// Fanout runs fn(i) once for every i in [0, n), on the caller and up to
// Parallelism()−1 helpers of the team. Indices are handed out one at a
// time, because the jobs — a layer's experts over their routed batches —
// are uneven. fn(i) must touch only job i's state; it may call kernels and
// Fanout itself. A panic in any fn stops the hand-out and is re-raised on
// the caller once every job that started has returned.
func Fanout(n int, fn func(i int)) {
	if Parallelism() <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := newTask(jobBody)
	p.job = fn
	p.fork(n, 1)
}

func jobBody(p *task, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.job(i)
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
	p := newTask(transposeBody)
	p.c, p.a, p.rows, p.m = dst.Data, t.Data, n, m
	p.split(jBlocks)
	return dst
}

func transposeBody(p *task, lo, hi int) { transposeTiles(p.c, p.a, lo, hi, p.rows, p.m) }

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
	p := newTask(addBody)
	p.c, p.a, p.b = dd, td, od
	p.split(len(td))
	return dst
}

func addBody(p *task, lo, hi int) { addRange(p.c, p.a, p.b, lo, hi) }

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
	p := newTask(scaleBody)
	p.c, p.a, p.alpha = dd, td, alpha
	p.split(len(td))
	return dst
}

func scaleBody(p *task, lo, hi int) { scaleRange(p.c, p.a, p.alpha, lo, hi) }

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
		softmaxRows(dst.Data, t.Data, cols, 0, rows)
		return dst
	}
	p := newTask(softmaxBody)
	p.c, p.a, p.m = dst.Data, t.Data, cols
	p.split(rows)
	return dst
}

func softmaxBody(p *task, lo, hi int) { softmaxRows(p.c, p.a, p.m, lo, hi) }

// softmaxRows softmaxes rows [lo, hi) of the row-major [_, cols] buffer a
// into r.
func softmaxRows(r, a []float64, cols, lo, hi int) {
	for i := lo; i < hi; i++ {
		SoftmaxInto(r[i*cols:(i+1)*cols], a[i*cols:(i+1)*cols])
	}
}
