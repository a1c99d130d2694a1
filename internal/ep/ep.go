// Package ep implements conventional expert parallelism — the paper's
// baseline (§II, Fig. 2) — as a functional runtime, not just a cost
// model: R ranks each replicate the non-expert layers and process a shard
// of the batch; the experts of every MoE block are partitioned across
// ranks (expert e on rank e mod R); token batches travel through
// synchronized all-to-all exchanges (sizes first — the "status
// synchronization" the paper identifies as EP's overhead — then
// payloads); and replicated trainable parameters are all-reduced at the
// end of every step.
//
// The runtime exists to demonstrate the baseline's mechanics and to pin
// its equivalence to single-process training; the Mixtral-scale
// performance comparison uses internal/sim's calibrated cost model.
package ep

import (
	"fmt"
	"sync"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Group coordinates R ranks running in lock step within one process.
// Exchanges are modeled after MPI all-to-all: every participant must
// enter the collective before any leaves it.
type Group struct {
	size int
	// mail[dst][src] carries one message per collective round.
	mail    [][]chan []*tensor.Tensor
	barrier *barrier
	// SyncRounds counts size-synchronization rounds (the paper's "status
	// synchronization process"), for instrumentation.
	mu         sync.Mutex
	syncRounds int
	// bytesMoved counts payload floats exchanged between distinct ranks.
	bytesMoved int64
}

// NewGroup creates a collective group of the given size.
func NewGroup(size int) *Group {
	g := &Group{size: size, barrier: newBarrier(size)}
	g.mail = make([][]chan []*tensor.Tensor, size)
	for d := range g.mail {
		g.mail[d] = make([]chan []*tensor.Tensor, size)
		for s := range g.mail[d] {
			g.mail[d][s] = make(chan []*tensor.Tensor, 1)
		}
	}
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.size }

// SyncRounds reports how many synchronized exchanges have run.
func (g *Group) SyncRounds() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncRounds
}

// CrossRankFloats reports the number of float64 values that moved between
// distinct ranks (×8 for bytes at full precision, ×2 for the paper's
// 16-bit exchange).
func (g *Group) CrossRankFloats() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bytesMoved
}

// barrier is a reusable N-party barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
}

// AllToAll performs one synchronized exchange: rank sends out[dst] (a
// slice of tensors, possibly empty) to every destination and receives the
// tensors every source addressed to it. The entry barrier models EP's
// size-synchronization step — no payload moves until every rank has
// joined the round.
func (g *Group) AllToAll(rank int, out [][]*tensor.Tensor) [][]*tensor.Tensor {
	if len(out) != g.size {
		panic(fmt.Sprintf("ep: rank %d sends to %d destinations, want %d", rank, len(out), g.size))
	}
	// Status synchronization barrier.
	g.barrier.wait()
	if rank == 0 {
		g.mu.Lock()
		g.syncRounds++
		g.mu.Unlock()
	}
	var moved int64
	for dst := 0; dst < g.size; dst++ {
		if dst != rank {
			for _, t := range out[dst] {
				if t != nil {
					moved += int64(t.Len())
				}
			}
		}
		g.mail[dst][rank] <- out[dst]
	}
	if moved > 0 {
		g.mu.Lock()
		g.bytesMoved += moved
		g.mu.Unlock()
	}
	in := make([][]*tensor.Tensor, g.size)
	for src := 0; src < g.size; src++ {
		in[src] = <-g.mail[rank][src]
	}
	// Exit barrier keeps rounds from overlapping.
	g.barrier.wait()
	return in
}

// AllReduceMean averages the gradients of the given parameters across
// ranks in place. Every rank must pass parameters of identical shapes in
// identical order (the replicated backbone).
type AllReducer struct {
	g   *Group
	mu  sync.Mutex
	acc [][]float64
	cnt int
}

// NewAllReducer creates an all-reduce helper for the group.
func NewAllReducer(g *Group) *AllReducer {
	return &AllReducer{g: g}
}

// ReduceMean averages grads element-wise across all ranks; blocks until
// every rank has contributed.
func (r *AllReducer) ReduceMean(rank int, params []*nn.Param) {
	// Contribution phase.
	r.mu.Lock()
	if r.acc == nil {
		r.acc = make([][]float64, len(params))
		for i, p := range params {
			r.acc[i] = make([]float64, p.Grad.Len())
		}
	}
	if len(r.acc) != len(params) {
		r.mu.Unlock()
		panic("ep: all-reduce parameter count mismatch across ranks")
	}
	for i, p := range params {
		for j, v := range p.Grad.Data {
			r.acc[i][j] += v
		}
	}
	r.cnt++
	r.mu.Unlock()

	r.g.barrier.wait()

	// Read-back phase: every rank overwrites its grads with the mean.
	inv := 1 / float64(r.g.size)
	r.mu.Lock()
	for i, p := range params {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = r.acc[i][j] * inv
		}
	}
	r.mu.Unlock()

	r.g.barrier.wait()

	// Reset once (single rank) for the next round.
	r.mu.Lock()
	if r.cnt == r.g.size {
		r.acc = nil
		r.cnt = 0
	}
	r.mu.Unlock()

	r.g.barrier.wait()
}

// Executor implements moe.Executor for one EP rank: per MoE block it
// scatters token batches to the owning ranks through a synchronized
// all-to-all, computes its own experts on the gathered rows, and
// scatters the results back — four synchronized exchanges per block per
// step, exactly the pattern whose cost Fig. 6 attributes EP's slowness
// to.
type Executor struct {
	Rank  int
	Group *Group
	// Experts holds the expert shard of this rank: Experts[layer][e] is
	// non-nil iff this rank owns expert e of that layer (e mod R == Rank).
	Experts [][]*moe.Expert
}

var _ moe.Executor = (*Executor)(nil)

// owner returns the rank hosting expert e.
func (x *Executor) owner(e int) int { return e % x.Group.Size() }

// ForwardExperts implements moe.Executor.
func (x *Executor) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.exchange(layer, batches, func(ex *moe.Expert, rows *tensor.Tensor) *tensor.Tensor {
		return ex.Forward(rows)
	})
}

// BackwardExperts implements moe.Executor.
func (x *Executor) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.exchange(layer, grads, func(ex *moe.Expert, rows *tensor.Tensor) *tensor.Tensor {
		return ex.Backward(rows)
	})
}

// exchange is the scatter → compute → gather round shared by forward and
// backward. Each round runs two synchronized all-to-alls (payload out,
// results back), matching the paper's 4 exchanges per block per step.
func (x *Executor) exchange(layer int, batches map[int]*tensor.Tensor, compute func(*moe.Expert, *tensor.Tensor) *tensor.Tensor) (map[int]*tensor.Tensor, error) {
	R := x.Group.Size()
	numExperts := len(x.Experts[layer])

	// Scatter: out[dst] carries one (possibly nil) tensor slot per
	// expert index, so the owner can reassemble per-expert batches in
	// deterministic (rank-major) order.
	out := make([][]*tensor.Tensor, R)
	for dst := 0; dst < R; dst++ {
		out[dst] = make([]*tensor.Tensor, numExperts)
	}
	for e, rows := range batches {
		out[x.owner(e)][e] = rows
	}
	in := x.Group.AllToAll(x.Rank, out)

	// Compute own experts on the concatenation of all ranks' rows.
	results := make([][]*tensor.Tensor, R) // results[src][e] rows for src
	for src := 0; src < R; src++ {
		results[src] = make([]*tensor.Tensor, numExperts)
	}
	for e := 0; e < numExperts; e++ {
		if x.owner(e) != x.Rank {
			continue
		}
		ex := x.Experts[layer][e]
		if ex == nil {
			// Only an error if someone routed rows here.
			for src := 0; src < R; src++ {
				if in[src][e] != nil {
					return nil, fmt.Errorf("ep: rank %d owns L%d/E%d but has no expert object", x.Rank, layer, e)
				}
			}
			continue
		}
		// Concatenate rows in rank order.
		var rowsPerSrc []int
		var total, d int
		for src := 0; src < R; src++ {
			if t := in[src][e]; t != nil {
				rowsPerSrc = append(rowsPerSrc, t.Rows())
				total += t.Rows()
				d = t.Cols()
			} else {
				rowsPerSrc = append(rowsPerSrc, 0)
			}
		}
		if total == 0 {
			continue
		}
		cat := tensor.Zeros(total, d)
		off := 0
		for src := 0; src < R; src++ {
			if t := in[src][e]; t != nil {
				copy(cat.Data[off*d:], t.Data)
				off += t.Rows()
			}
		}
		y := compute(x.Experts[layer][e], cat)
		// Split back per source.
		off = 0
		for src := 0; src < R; src++ {
			n := rowsPerSrc[src]
			if n == 0 {
				continue
			}
			part := tensor.Zeros(n, d)
			copy(part.Data, y.Data[off*d:(off+n)*d])
			results[src][e] = part
			off += n
		}
	}

	// Gather: send results back to the sources.
	back := x.Group.AllToAll(x.Rank, results)
	outMap := make(map[int]*tensor.Tensor, len(batches))
	for e := range batches {
		owner := x.owner(e)
		t := back[owner][e]
		if t == nil {
			return nil, fmt.Errorf("ep: rank %d missing result for L%d/E%d from rank %d", x.Rank, layer, e, owner)
		}
		outMap[e] = t
	}
	return outMap, nil
}

// OwnExpertParams returns the parameters of the experts this rank hosts.
func (x *Executor) OwnExpertParams() []*nn.Param {
	var ps []*nn.Param
	for _, layer := range x.Experts {
		for e, ex := range layer {
			if ex != nil && x.owner(e) == x.Rank {
				ps = append(ps, ex.Params()...)
			}
		}
	}
	return ps
}

// ShardExperts splits a full expert grid into per-rank shards using the
// EP layout (expert e on rank e mod R). The returned shard grids have nil
// entries for experts the rank does not own.
func ShardExperts(grid [][]*moe.Expert, ranks int) [][][]*moe.Expert {
	out := make([][][]*moe.Expert, ranks)
	for r := 0; r < ranks; r++ {
		shard := make([][]*moe.Expert, len(grid))
		for l := range grid {
			shard[l] = make([]*moe.Expert, len(grid[l]))
			for e := range grid[l] {
				if e%ranks == r {
					shard[l][e] = grid[l][e]
				}
			}
		}
		out[r] = shard
	}
	return out
}
