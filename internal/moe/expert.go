package moe

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ExpertID identifies one expert globally: the MoE block (layer) it
// belongs to and its index within the block. This is the unit of
// placement in VELA.
type ExpertID struct {
	Layer  int
	Expert int
}

// String implements fmt.Stringer.
func (id ExpertID) String() string { return fmt.Sprintf("L%d/E%d", id.Layer, id.Expert) }

// Expert is a single MoE expert: a SwiGLU feed-forward network, as in
// Mistral-family models. Experts are self-contained so VELA's Expert
// Manager can host them detached from the backbone.
type Expert struct {
	ID  ExpertID
	FFN *nn.SwiGLU
}

// NewExpert constructs an expert for the given block with model width d
// and hidden width hidden. A nil rng (here and in AttachLoRA) leaves the
// weights zero, for a caller that loads them.
func NewExpert(id ExpertID, rng *rand.Rand, d, hidden int, trainable bool) *Expert {
	return &Expert{
		ID:  id,
		FFN: nn.NewSwiGLU(id.String(), rng, d, hidden, trainable),
	}
}

// Params implements nn.Module.
func (e *Expert) Params() []*nn.Param { return e.FFN.Params() }

// AttachLoRA attaches LoRA adapters to all three expert projections,
// freezing the base weights.
func (e *Expert) AttachLoRA(rng *rand.Rand, r int, alpha float64) {
	for _, l := range e.FFN.Linears() {
		l.AttachLoRA(rng, r, alpha)
	}
}

// Forward computes the expert on a batch of routed tokens [n, d].
func (e *Expert) Forward(x *tensor.Tensor) *tensor.Tensor { return e.FFN.Forward(x) }

// Backward propagates dy through the expert, accumulating its parameter
// gradients, and returns dx.
func (e *Expert) Backward(dy *tensor.Tensor) *tensor.Tensor { return e.FFN.Backward(dy) }

// Executor abstracts where expert computation happens. The local
// implementation runs experts in-process; VELA's broker implementation
// ships batches to Expert Manager workers over a transport. Keys of the
// batch maps are expert indices within the block.
type Executor interface {
	// ForwardExperts runs each expert on its routed token batch and
	// returns the per-expert outputs with matching row order.
	ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error)
	// BackwardExperts propagates per-expert output gradients, accumulates
	// expert parameter gradients wherever the experts live, and returns
	// the per-expert input gradients.
	BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error)
}

// LocalExecutor runs experts in the calling process — the non-distributed
// reference configuration, used for correctness baselines and the
// convergence-equivalence tests. A result map it returns is valid until
// its next call for the same layer and direction.
type LocalExecutor struct {
	// Experts[layer][e] is the expert for index e of that block.
	Experts [][]*Expert

	// runs[2·layer+dir] is the fan-out state of a layer's forward (dir 0)
	// or backward (dir 1), reused from step to step.
	runs []*fanoutRun
}

// fanoutRun is one layer-direction's fan-out: the routed experts, largest
// batch first, their inputs and results, and the result map.
type fanoutRun struct {
	experts []*Expert
	ids     []int
	in, res []*tensor.Tensor
	out     map[int]*tensor.Tensor
	run     func(*Expert, *tensor.Tensor) *tensor.Tensor
	// job is runJob bound once, so a step hands the team no fresh closure.
	job func(i int)
}

func (r *fanoutRun) runJob(i int) { r.res[i] = r.run(r.experts[r.ids[i]], r.in[i]) }

var _ Executor = (*LocalExecutor)(nil)

// newLocalExecutor builds a local executor over a full expert grid.
func newLocalExecutor(experts [][]*Expert) *LocalExecutor {
	return &LocalExecutor{Experts: experts}
}

// ForwardExperts implements Executor.
func (x *LocalExecutor) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.fanout(layer, 0, batches, (*Expert).Forward), nil
}

// BackwardExperts implements Executor.
func (x *LocalExecutor) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.fanout(layer, 1, grads, (*Expert).Backward), nil
}

// fanout applies run to each routed expert of the layer and its tensor,
// the experts side by side (tensor.Fanout: they share no state, and Block
// combines the results in expert-index order, so the degree is invisible
// in the bits).
func (x *LocalExecutor) fanout(layer, dir int, in map[int]*tensor.Tensor, run func(*Expert, *tensor.Tensor) *tensor.Tensor) map[int]*tensor.Tensor {
	if len(x.runs) < 2*len(x.Experts) {
		x.runs = make([]*fanoutRun, 2*len(x.Experts))
	}
	r := x.runs[2*layer+dir]
	if r == nil {
		r = &fanoutRun{out: make(map[int]*tensor.Tensor)}
		r.job = r.runJob
		x.runs[2*layer+dir] = r
	}
	r.experts, r.run = x.Experts[layer], run
	// Largest batch first, ties by expert index: the hand-out is dynamic,
	// so the small ones fill in behind it instead of one large one
	// finishing alone.
	r.ids, r.in = r.ids[:0], r.in[:0]
	for e, t := range in {
		r.ids, r.in = append(r.ids, e), append(r.in, t)
		i := len(r.ids) - 1
		for ; i > 0 && (r.in[i-1].Rows() < t.Rows() || r.in[i-1].Rows() == t.Rows() && r.ids[i-1] > e); i-- {
			r.ids[i], r.in[i] = r.ids[i-1], r.in[i-1]
		}
		r.ids[i], r.in[i] = e, t
	}
	r.res = resize(r.res, len(r.ids))
	tensor.Fanout(len(r.ids), r.job)
	clear(r.out)
	for i, e := range r.ids {
		r.out[e] = r.res[i]
	}
	clear(r.in)
	clear(r.res)
	return r.out
}

// Params returns the parameters of every expert in the grid.
func (x *LocalExecutor) Params() []*nn.Param {
	var ps []*nn.Param
	for _, layer := range x.Experts {
		for _, e := range layer {
			ps = append(ps, e.Params()...)
		}
	}
	return ps
}
