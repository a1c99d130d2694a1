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
	positions  map[int][]int          // expert -> token indices routed to it (in batch row order)
	outs       map[int]*tensor.Tensor // cached expert outputs (needed for gate backward)

	// batches holds the per-expert input copies for the current step. The
	// tensors come from the arena, but experts cache their inputs until
	// Backward, so they are returned (Put) only after BackwardExperts.
	batches map[int]*tensor.Tensor
	// Step-persistent combine output and input-gradient buffers.
	y, dx *tensor.Tensor
}

// NewBlock builds a MoE block for the given layer index.
func NewBlock(layer int, rng *rand.Rand, d, numExperts, topK int, gateTrainable bool) *Block {
	return &Block{
		Layer:      layer,
		Gate:       NewGate(fmt.Sprintf("block%d", layer), rng, d, numExperts, topK, gateTrainable),
		numExperts: numExperts,
	}
}

// NumExperts returns the number of experts in the block.
func (b *Block) NumExperts() int { return b.numExperts }

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
		b.Stats.Record(b.Layer, r)
	}
	if b.Obs != nil {
		b.Obs.RecordRouting(b.Layer, r.Experts)
	}

	// Group token rows per selected expert, preserving token order.
	b.positions = make(map[int][]int)
	for t := 0; t < n; t++ {
		for _, e := range r.Experts[t] {
			b.positions[e] = append(b.positions[e], t)
		}
	}
	batches := make(map[int]*tensor.Tensor, len(b.positions))
	for e, toks := range b.positions {
		m := tensor.GetDirty(len(toks), d)
		for i, t := range toks {
			copy(m.Row(i), x.Row(t))
		}
		batches[e] = m
	}
	b.batches = batches

	outs, err := b.Exec.ForwardExperts(b.Layer, batches)
	if err != nil {
		return nil, fmt.Errorf("moe: block %d expert forward: %w", b.Layer, err)
	}
	if b.gateTrainable() {
		b.outs = outs
	}

	// Weighted combine back into token order, iterating experts in index
	// order so summation order (and thus floating-point results) is
	// deterministic and identical between local and brokered execution.
	y := tensor.Ensure(&b.y, n, d)
	y.Zero()
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		out, ok := outs[e]
		if !ok {
			return nil, fmt.Errorf("moe: block %d missing output for expert %d", b.Layer, e)
		}
		if out.Rows() != len(toks) || out.Cols() != d {
			return nil, fmt.Errorf("moe: block %d expert %d returned %v, want [%d,%d]", b.Layer, e, out.Shape(), len(toks), d)
		}
		for i, t := range toks {
			w := weightFor(r, t, e)
			yr, or := y.Row(t), out.Row(i)
			for j := 0; j < d; j++ {
				yr[j] += w * or[j]
			}
		}
	}
	return y, nil
}

// weightFor returns the combination weight of expert e for token t.
func weightFor(r *Routing, t, e int) float64 {
	for j, se := range r.Experts[t] {
		if se == e {
			return r.Weights[t][j]
		}
	}
	panic(fmt.Sprintf("moe: expert %d not selected for token %d", e, t))
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
	r := b.routing

	grads := make(map[int]*tensor.Tensor, len(b.positions))
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		g := tensor.GetDirty(len(toks), d)
		for i, t := range toks {
			w := weightFor(r, t, e)
			gr, dr := g.Row(i), dy.Row(t)
			for j := 0; j < d; j++ {
				gr[j] = w * dr[j]
			}
		}
		grads[e] = g
	}

	dxs, err := b.Exec.BackwardExperts(b.Layer, grads)
	if err != nil {
		// On failure some experts may still cache their inputs, so the
		// arena buffers are abandoned to the GC rather than recycled.
		b.batches = nil
		return nil, fmt.Errorf("moe: block %d expert backward: %w", b.Layer, err)
	}
	// Every expert has consumed its dispatch batch and gradient input by
	// now (experts release cached inputs in their own Backward), so the
	// arena buffers can be recycled.
	for _, g := range grads {
		tensor.Put(g)
	}
	for _, m := range b.batches {
		tensor.Put(m)
	}
	b.batches = nil

	dx := tensor.Ensure(&b.dx, n, d)
	dx.Zero()
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		dxe, ok := dxs[e]
		if !ok {
			return nil, fmt.Errorf("moe: block %d missing input grad for expert %d", b.Layer, e)
		}
		for i, t := range toks {
			dr, sr := dx.Row(t), dxe.Row(i)
			for j := 0; j < d; j++ {
				dr[j] += sr[j]
			}
		}
	}

	if b.gateTrainable() {
		dx.AddInPlace(b.gateBackward(dy))
	}
	b.routing, b.positions, b.outs = nil, nil, nil
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

	// Position of token t within expert e's batch.
	rowOf := make(map[int]map[int]int, len(b.positions))
	for ex, toks := range b.positions {
		m := make(map[int]int, len(toks))
		for i, t := range toks {
			m[t] = i
		}
		rowOf[ex] = m
	}

	// dL/dp (softmax probabilities), nonzero only for selected experts;
	// the top-k selection itself is non-differentiable, as usual.
	dp := tensor.Zeros(n, e)
	for t := 0; t < n; t++ {
		sel := r.Experts[t]
		mass := r.SelectedMass[t]
		// a_j = dy_t · f_j(x_t) for each selected expert j.
		a := make([]float64, len(sel))
		for j, ex := range sel {
			out := b.outs[ex].Row(rowOf[ex][t])
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
		for ex, toks := range b.positions {
			frac[ex] = float64(len(toks))
			routings += float64(len(toks))
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
	return b.Gate.BackwardLogits(dlogits)
}
