package moe

import (
	"fmt"
	"math/rand"
	"sort"

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
// convergence-equivalence tests.
type LocalExecutor struct {
	// Experts[layer][e] is the expert for index e of that block.
	Experts [][]*Expert
}

var _ Executor = (*LocalExecutor)(nil)

// NewLocalExecutor builds a local executor over a full expert grid.
func NewLocalExecutor(experts [][]*Expert) *LocalExecutor {
	return &LocalExecutor{Experts: experts}
}

// ForwardExperts implements Executor.
func (x *LocalExecutor) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.fanout(layer, batches, (*Expert).Forward), nil
}

// BackwardExperts implements Executor.
func (x *LocalExecutor) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.fanout(layer, grads, (*Expert).Backward), nil
}

// fanout applies run to each routed expert of the layer and its tensor,
// the experts side by side (tensor.Fanout: they share no state, and Block
// combines the results in expert-index order, so the degree is invisible
// in the bits).
func (x *LocalExecutor) fanout(layer int, in map[int]*tensor.Tensor, run func(*Expert, *tensor.Tensor) *tensor.Tensor) map[int]*tensor.Tensor {
	ids := make([]int, 0, len(in))
	for e := range in {
		ids = append(ids, e)
	}
	// Largest batch first: the hand-out is dynamic, so the small ones fill
	// in behind it instead of one large one finishing alone.
	sort.Slice(ids, func(i, j int) bool { return in[ids[i]].Rows() > in[ids[j]].Rows() })
	res := make([]*tensor.Tensor, len(ids))
	tensor.Fanout(len(ids), func(i int) {
		res[i] = run(x.Experts[layer][ids[i]], in[ids[i]])
	})
	out := make(map[int]*tensor.Tensor, len(ids))
	for i, e := range ids {
		out[e] = res[i]
	}
	return out
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
