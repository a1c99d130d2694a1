package moe

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Block is one MoE block: the gate plus the dispatch/combine logic around
// a set of experts reachable through an Executor. When the executor is a
// LocalExecutor this is a conventional MoE layer; when it is VELA's broker
// the block *is* the paper's "expert broker layer" — it performs no expert
// computation itself, only token dispatch and result gathering.
type Block struct {
	Layer int
	Gate  *Gate
	// Exec provides expert computation. Settable at runtime so the same
	// backbone can switch between local and detached execution.
	Exec Executor
	// Stats, when non-nil, accumulates routing counts on every forward.
	Stats *AccessStats
	// Obs, when non-nil, feeds every forward's gate selections to the
	// placement-fidelity (P-drift) monitor.
	Obs *obs.Handle
	// AuxLossCoef is the Switch-Transformer-style load-balancing
	// coefficient, active only while the gate is trainable (pre-training).
	// The paper's fine-tuning keeps the gate frozen, so this is zero
	// there.
	AuxLossCoef float64

	numExperts int
	routing    *Routing
	outs       map[int]*tensor.Tensor // expert outputs, kept for the gate's backward while it trains

	// The dispatch plan of the current forward: the routing's tokens·k
	// (token, expert) pairs counting-sorted by expert into plan rows,
	// token order kept within each expert. Expert e's batch is plan rows
	// off[e] ≤ i < off[e+1]; order[i] is the token of plan row i and
	// weight[i] its combination weight. Token t's k plan rows, ascending
	// by expert, are slot[t·k : t·k+k], their experts slotExpert[…]. next
	// is the sort's fill cursor. All step-persistent.
	off, next, order, slot, slotExpert []int
	weight                             []float64

	// Per-expert tensors by expert index, nil where no token is routed:
	// the dispatch batches (arena buffers that experts cache until their
	// Backward, so they are returned only after BackwardExperts), the
	// output gradients sent back, and the executor's results being
	// combined or gathered.
	batch, grad, res []*tensor.Tensor
	// The same batches and gradients keyed for the Executor, reused with
	// clear.
	batches, grads map[int]*tensor.Tensor
	// x and dy are the dispatch and scatter jobs' input while they run.
	x, dy *tensor.Tensor
	// Step-persistent combine output and input-gradient buffers.
	y, dx *tensor.Tensor

	// dispatchJob, combineJob, scatterJob and gatherJob are dispatchRows,
	// combineRows, scatterRows and gatherRows bound once, so a step hands
	// the team no fresh closure.
	dispatchJob, combineJob, scatterJob, gatherJob func(lo, hi int)
}

// Work estimates (units of tensor.DefaultParallelThreshold) per element
// of the block's row passes, from BenchmarkBlockRouting's one-core times:
// the dispatch, scatter and gather move an element between the token
// matrix and an expert's batch (0.4–0.9 ns), the combine adds a weighted
// one (1.1 ns). At stepbench's geometry every pass is under the threshold
// but over a quarter of it, so it splits while a helper polls
// (tensor.Serial).
const (
	copyRowCost    = 2
	combineRowCost = 3
)

// newBlock builds a MoE block for the given layer index.
func newBlock(layer int, rng *rand.Rand, d, numExperts, topK int, gateTrainable bool) *Block {
	b := &Block{
		Layer:      layer,
		Gate:       newGate(fmt.Sprintf("block%d", layer), rng, d, numExperts, topK, gateTrainable),
		numExperts: numExperts,
		batch:      make([]*tensor.Tensor, numExperts),
		grad:       make([]*tensor.Tensor, numExperts),
		res:        make([]*tensor.Tensor, numExperts),
		batches:    make(map[int]*tensor.Tensor, numExperts),
		grads:      make(map[int]*tensor.Tensor, numExperts),
	}
	b.dispatchJob, b.combineJob, b.scatterJob, b.gatherJob = b.dispatchRows, b.combineRows, b.scatterRows, b.gatherRows
	return b
}

// Params implements nn.Module. Only the gate lives in the block; expert
// parameters belong to whatever hosts the executor.
func (b *Block) Params() []*nn.Param { return b.Gate.Params() }

// LastRouting returns the routing decisions from the most recent Forward,
// for instrumentation (e.g. the Fig. 3(b) CDF).
func (b *Block) LastRouting() *Routing { return b.routing }

// Forward routes x ([tokens, d]) through the gate, dispatches per-expert
// batches to the executor, and combines the results with the normalized
// gate weights (Eq. (1)).
func (b *Block) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if b.Exec == nil {
		return nil, fmt.Errorf("moe: block %d has no executor", b.Layer)
	}
	n, d := x.Rows(), x.Cols()
	r := b.Gate.Forward(x)
	b.routing = r
	if b.Stats != nil {
		b.Stats.record(b.Layer, r)
	}
	if b.Obs != nil {
		b.Obs.RecordRouting(b.Layer, r.Experts)
	}

	b.planDispatch(r)
	clear(b.batches)
	for e := range b.batch {
		b.batch[e] = nil
		if rows := b.off[e+1] - b.off[e]; rows > 0 {
			b.batch[e] = tensor.GetDirty(rows, d)
			b.batches[e] = b.batch[e]
		}
	}
	b.dispatch(x)

	outs, err := b.Exec.ForwardExperts(b.Layer, b.batches)
	if err != nil {
		return nil, fmt.Errorf("moe: block %d expert forward: %w", b.Layer, err)
	}
	if b.gateTrainable() {
		b.outs = outs
	}
	for e := range b.res {
		rows := b.off[e+1] - b.off[e]
		if rows == 0 {
			continue
		}
		out, ok := outs[e]
		if !ok {
			return nil, fmt.Errorf("moe: block %d missing output for expert %d", b.Layer, e)
		}
		if out.Rows() != rows || out.Cols() != d {
			return nil, fmt.Errorf("moe: block %d expert %d returned %v, want [%d,%d]", b.Layer, e, out.Shape(), rows, d)
		}
		b.res[e] = out
	}

	tensor.Ensure(&b.y, n, d)
	b.combine()
	return b.y, nil
}

// planDispatch counting-sorts the routing's (token, expert) pairs by
// expert into the dispatch plan (see Block), keeping token order within
// each expert.
func (b *Block) planDispatch(r *Routing) {
	E, k := b.numExperts, b.Gate.TopK
	b.off = resize(b.off, E+1)
	clear(b.off)
	for _, sel := range r.Experts {
		for _, e := range sel {
			b.off[e+1]++
		}
	}
	for e := 0; e < E; e++ {
		b.off[e+1] += b.off[e]
	}
	b.next = append(b.next[:0], b.off[:E]...)
	rows := len(r.Experts) * k
	b.order, b.weight = resize(b.order, rows), resize(b.weight, rows)
	b.slot, b.slotExpert = resize(b.slot, rows), resize(b.slotExpert, rows)
	for t, sel := range r.Experts {
		base := t * k
		for j, e := range sel {
			i := b.next[e]
			b.next[e]++
			b.order[i], b.weight[i] = t, r.Weights[t][j]
			// Insert (e, i) into the token's slots, ascending by expert.
			c := base + j
			for ; c > base && b.slotExpert[c-1] > e; c-- {
				b.slotExpert[c], b.slot[c] = b.slotExpert[c-1], b.slot[c-1]
			}
			b.slotExpert[c], b.slot[c] = e, i
		}
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// dispatch copies x's routed rows into the experts' batches, the experts
// side by side.
func (b *Block) dispatch(x *tensor.Tensor) {
	b.x = x
	tensor.ParallelRangeCost(b.numExperts, copyRowCost*len(b.order)*x.Cols(), b.dispatchJob)
	b.x = nil
}

// combine writes y from the experts' outputs in b.res, tokens side by
// side, and drops them.
func (b *Block) combine() {
	tensor.ParallelRangeCost(b.y.Rows(), combineRowCost*len(b.order)*b.y.Cols(), b.combineJob)
	clear(b.res)
}

// scatter writes the experts' output gradients from dy, the experts side
// by side.
func (b *Block) scatter(dy *tensor.Tensor) {
	b.dy = dy
	tensor.ParallelRangeCost(b.numExperts, copyRowCost*len(b.order)*dy.Cols(), b.scatterJob)
	b.dy = nil
}

// gather writes dx from the experts' input gradients in b.res, tokens
// side by side, and drops them.
func (b *Block) gather() {
	tensor.ParallelRangeCost(b.dx.Rows(), copyRowCost*len(b.order)*b.dx.Cols(), b.gatherJob)
	clear(b.res)
}

// dispatchRows copies the routed rows of experts [lo, hi) out of b.x into
// their batches.
func (b *Block) dispatchRows(lo, hi int) {
	for e := lo; e < hi; e++ {
		m, base := b.batch[e], b.off[e]
		for i := base; i < b.off[e+1]; i++ {
			copy(m.Row(i-base), b.x.Row(b.order[i]))
		}
	}
}

// combineRows writes tokens [lo, hi) of y: each token's weighted expert
// outputs summed from +0 in ascending expert index, so the sum is the
// same for every split and for local and brokered execution.
func (b *Block) combineRows(lo, hi int) {
	k := b.Gate.TopK
	for t := lo; t < hi; t++ {
		yr := b.y.Row(t)
		clear(yr)
		for c := t * k; c < (t+1)*k; c++ {
			e, i := b.slotExpert[c], b.slot[c]
			w, or := b.weight[i], b.res[e].Row(i-b.off[e])
			for j := range yr {
				yr[j] += w * or[j]
			}
		}
	}
}

// scatterRows writes the output gradients of experts [lo, hi): each
// routed row is its token's dy times the token's weight for the expert.
func (b *Block) scatterRows(lo, hi int) {
	for e := lo; e < hi; e++ {
		g, base := b.grad[e], b.off[e]
		for i := base; i < b.off[e+1]; i++ {
			w, gr, dr := b.weight[i], g.Row(i-base), b.dy.Row(b.order[i])
			for j := range gr {
				gr[j] = w * dr[j]
			}
		}
	}
}

// gatherRows writes tokens [lo, hi) of dx: each token's expert input
// gradients summed from +0 in ascending expert index.
func (b *Block) gatherRows(lo, hi int) {
	k := b.Gate.TopK
	for t := lo; t < hi; t++ {
		dr := b.dx.Row(t)
		clear(dr)
		for c := t * k; c < (t+1)*k; c++ {
			e, i := b.slotExpert[c], b.slot[c]
			sr := b.res[e].Row(i - b.off[e])
			for j := range dr {
				dr[j] += sr[j]
			}
		}
	}
}

func (b *Block) gateTrainable() bool { return b.Gate.Proj.W.Trainable }

// Backward propagates dy through the weighted combine and the experts and
// returns dx.
//
// During fine-tuning the gate is frozen, so routing weights are treated as
// constants (the paper fine-tunes "all the linear layers except for the
// gating mechanism") and the gradient flows only through the expert path.
// During pre-training (trainable gate) the gradient additionally flows
// through the combination weights into the gate projection, together with
// the load-balancing auxiliary term, which is what lets experts
// specialize and expert locality emerge.
func (b *Block) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if b.routing == nil {
		return nil, fmt.Errorf("moe: block %d Backward called before Forward", b.Layer)
	}
	n, d := dy.Rows(), dy.Cols()

	clear(b.grads)
	for e := range b.grad {
		b.grad[e] = nil
		if rows := b.off[e+1] - b.off[e]; rows > 0 {
			b.grad[e] = tensor.GetDirty(rows, d)
			b.grads[e] = b.grad[e]
		}
	}
	b.scatter(dy)

	dxs, err := b.Exec.BackwardExperts(b.Layer, b.grads)
	if err != nil {
		// On failure some experts may still cache their inputs, so the
		// arena buffers are abandoned to the GC rather than recycled.
		clear(b.batch)
		clear(b.grad)
		clear(b.batches)
		clear(b.grads)
		return nil, fmt.Errorf("moe: block %d expert backward: %w", b.Layer, err)
	}
	// Every expert has consumed its dispatch batch and gradient input by
	// now (experts release cached inputs in their own Backward), so the
	// arena buffers can be recycled.
	for e := range b.batch {
		rows := b.off[e+1] - b.off[e]
		if rows == 0 {
			continue
		}
		tensor.Put(b.grad[e])
		tensor.Put(b.batch[e])
		b.grad[e], b.batch[e] = nil, nil
		dxe, ok := dxs[e]
		if !ok {
			return nil, fmt.Errorf("moe: block %d missing input grad for expert %d", b.Layer, e)
		}
		if dxe.Rows() != rows || dxe.Cols() != d {
			return nil, fmt.Errorf("moe: block %d expert %d input grad is %v, want [%d,%d]", b.Layer, e, dxe.Shape(), rows, d)
		}
		b.res[e] = dxe
	}
	clear(b.batches)
	clear(b.grads)

	dx := tensor.Ensure(&b.dx, n, d)
	b.gather()

	if b.gateTrainable() {
		dx.AddInPlace(b.gateBackward(dy))
	}
	b.routing, b.outs = nil, nil
	return dx, nil
}

// gateBackward computes the gradient flowing into the gate during
// pre-training: through the normalized combination weights (Eq. (1)) and
// through the load-balancing auxiliary loss. Returns the gate's
// contribution to dx.
func (b *Block) gateBackward(dy *tensor.Tensor) *tensor.Tensor {
	r := b.routing
	n := dy.Rows()
	e := b.numExperts

	// dL/dp (softmax probabilities), nonzero only for selected experts;
	// the top-k selection itself is non-differentiable, as usual.
	dp := tensor.Zeros(n, e)
	for t := 0; t < n; t++ {
		sel := r.Experts[t]
		mass := r.SelectedMass[t]
		// a_j = dy_t · f_j(x_t) for each selected expert j.
		a := make([]float64, len(sel))
		for j, ex := range sel {
			out := b.outs[ex].Row(b.rowOf(t, ex))
			dr := dy.Row(t)
			var dot float64
			for k := range dr {
				dot += dr[k] * out[k]
			}
			a[j] = dot
		}
		// w_j = p_j/mass  ⇒  ∂w_j/∂p_i = (δ_ij − w_j)/mass  for i ∈ sel.
		for i, ei := range sel {
			var g float64
			for j := range sel {
				delta := 0.0
				if i == j {
					delta = 1
				}
				g += a[j] * (delta - r.Weights[t][j]) / mass
			}
			dp.Set(g, t, ei)
		}
	}

	// Auxiliary load-balancing loss (Switch Transformers):
	// L_aux = coef · E · Σ_e f_e · P̄_e, with f_e the routed fraction
	// (treated as constant) and P̄_e the mean gate probability.
	if b.AuxLossCoef > 0 {
		frac := make([]float64, e)
		var routings float64
		for ex := range frac {
			frac[ex] = float64(b.off[ex+1] - b.off[ex])
			routings += frac[ex]
		}
		for ex := range frac {
			frac[ex] /= routings
		}
		k := b.AuxLossCoef * float64(e) / float64(n)
		for t := 0; t < n; t++ {
			row := dp.Row(t)
			for ex := 0; ex < e; ex++ {
				row[ex] += k * frac[ex]
			}
		}
	}

	// Softmax backward: dlogit_k = p_k (dp_k − Σ_i p_i dp_i).
	dlogits := tensor.Zeros(n, e)
	for t := 0; t < n; t++ {
		p := r.Scores.Row(t)
		dpr := dp.Row(t)
		var dot float64
		for k := 0; k < e; k++ {
			dot += p[k] * dpr[k]
		}
		dl := dlogits.Row(t)
		for k := 0; k < e; k++ {
			dl[k] = p[k] * (dpr[k] - dot)
		}
	}
	return b.Gate.backwardLogits(dlogits)
}

// rowOf returns the row of token t within expert e's batch.
func (b *Block) rowOf(t, e int) int {
	k := b.Gate.TopK
	for c := t * k; c < (t+1)*k; c++ {
		if b.slotExpert[c] == e {
			return b.slot[c] - b.off[e]
		}
	}
	panic(fmt.Sprintf("moe: expert %d not selected for token %d", e, t))
}
