// Package moe implements the Mixture-of-Experts core of the VELA
// reproduction: the softmax top-k gate, the SwiGLU expert, the MoE block
// with a pluggable expert executor (local, or detached behind VELA's
// Expert Broker), the full MoE transformer model, and the expert-access
// statistics that form the probability matrix P used by locality-aware
// placement.
package moe

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Routing is the output of the gate for one flattened token batch: for
// every token, the selected experts, their combination weights
// (p_i / Σ p_i over the selected set, Eq. (1) of the paper), and the full
// softmax score matrix.
//
// The per-token rows of Experts and Weights are sub-slices of two flat
// [tokens·TopK] arrays, one pair per forward: a routing stays valid after
// later forwards, which Theorem-1 probes rely on, and the gate allocates
// a fixed handful of objects per forward rather than two per token.
type Routing struct {
	// Experts[t] lists the TopK expert indices chosen for token t, in
	// descending score order.
	Experts [][]int
	// Weights[t][j] is the normalized combination weight for
	// Experts[t][j].
	Weights [][]float64
	// Scores is the full softmax matrix [tokens, E]; Scores[t][e] is the
	// gate probability the paper calls P_t(x)[e].
	Scores *tensor.Tensor
	// SelectedMass[t] is Σ_j Scores[t][Experts[t][j]] — the quantity
	// whose CDF the paper plots in Fig. 3(b).
	SelectedMass []float64
}

// Gate is the MoE router: a linear projection to E logits followed by a
// softmax and top-k selection. Per the paper's fine-tuning setup (and
// Shen et al.), the gate is frozen during fine-tuning; it is trainable
// only during the pre-training phase that establishes expert locality.
type Gate struct {
	Proj *nn.Linear
	TopK int
}

// newGate builds a gate routing d-dimensional tokens to numExperts
// experts, selecting topK per token.
func newGate(name string, rng *rand.Rand, d, numExperts, topK int, trainable bool) *Gate {
	if topK <= 0 || topK > numExperts {
		panic(fmt.Sprintf("moe: invalid topK %d for %d experts", topK, numExperts))
	}
	return &Gate{
		Proj: nn.NewLinear(name+".gate", rng, d, numExperts, false, trainable),
		TopK: topK,
	}
}

// Params implements nn.Module.
func (g *Gate) Params() []*nn.Param { return g.Proj.Params() }

// Forward routes the flattened token batch x ([tokens, d]).
func (g *Gate) Forward(x *tensor.Tensor) *Routing {
	logits := g.Proj.Forward(x)
	//lint:ignore allocbound Scores escapes inside the returned Routing: Theorem-1 probes hold routings across later forwards, so the buffer cannot be reused
	scores := logits.SoftmaxRows()
	n, k := x.Rows(), g.TopK
	experts, weights := make([]int, n*k), make([]float64, n*k)
	r := &Routing{
		Experts:      make([][]int, n),
		Weights:      make([][]float64, n),
		Scores:       scores,
		SelectedMass: make([]float64, n),
	}
	for t := 0; t < n; t++ {
		row := scores.Row(t)
		// Capped at the row's end, so an append by a consumer cannot run
		// into the next token's row.
		sel, w := experts[t*k:(t+1)*k:(t+1)*k], weights[t*k:(t+1)*k:(t+1)*k]
		tensor.ArgTopKInto(sel, row)
		var mass float64
		for _, e := range sel {
			mass += row[e]
		}
		for j, e := range sel {
			w[j] = row[e] / mass
		}
		r.Experts[t] = sel
		r.Weights[t] = w
		r.SelectedMass[t] = mass
	}
	return r
}

// backwardLogits propagates a gradient on the gate logits back to the
// gate input and accumulates the projection gradient. Used only during
// pre-training (with the load-balancing auxiliary loss); during
// fine-tuning the gate is frozen and routing weights are treated as
// constants, matching the paper.
func (g *Gate) backwardLogits(dlogits *tensor.Tensor) *tensor.Tensor {
	return g.Proj.Backward(dlogits)
}
