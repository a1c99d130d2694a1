package moe

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Config describes an MoE transformer's geometry. PaperTinyConfig mirrors
// the TinyMistral-6x248M measurement model (12 blocks, 6 experts, top-2);
// PaperMixtralConfig mirrors Mixtral-8x7B at the routing level (32 blocks,
// 8 experts, top-2, hidden size 4096) — only the routing geometry matters
// to the placement experiments, so the simulator uses it with scaled-down
// widths.
type Config struct {
	Vocab   int
	D       int // model (feature) width
	Heads   int
	Hidden  int // expert FFN hidden width
	Layers  int // number of transformer layers == MoE blocks
	Experts int // experts per block
	TopK    int // experts selected per token
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0, c.D <= 0, c.Heads <= 0, c.Hidden <= 0, c.Layers <= 0, c.Experts <= 0:
		return fmt.Errorf("moe: all config dimensions must be positive: %+v", c)
	case c.D%c.Heads != 0:
		return fmt.Errorf("moe: D=%d not divisible by Heads=%d", c.D, c.Heads)
	case c.TopK <= 0 || c.TopK > c.Experts:
		return fmt.Errorf("moe: TopK=%d out of range for %d experts", c.TopK, c.Experts)
	}
	return nil
}

// TinyMistralConfig returns a laptop-scale analogue of the paper's
// TinyMistral-6x248M: 12 MoE blocks, 6 experts each, 2 selected per token.
// Widths are scaled down so pre-training and fine-tuning run in seconds on
// a CPU; the routing geometry — the part the paper's analysis depends on —
// is exact.
func TinyMistralConfig() Config {
	return Config{Vocab: 96, D: 32, Heads: 4, Hidden: 64, Layers: 12, Experts: 6, TopK: 2}
}

// Layer is one transformer layer: pre-norm attention and a pre-norm MoE
// block, each with a residual connection (Fig. 1 of the paper).
type Layer struct {
	AttnNorm *nn.RMSNorm
	Attn     *nn.Attention
	FFNNorm  *nn.RMSNorm
	MoE      *Block

	// Step-persistent residual-sum buffers. The residual adds cannot run
	// in place: each norm caches its input tensor until Backward, so the
	// pre-add activation must stay intact. Two distinct buffers per layer
	// keep both residual states alive across the step.
	resA, resB *tensor.Tensor
}

// Model is the full MoE transformer. When experts are detached (VELA
// mode), the blocks' executors point at the broker and the model object is
// exactly the paper's "model backbone".
type Model struct {
	Cfg       Config
	Embed     *nn.Embedding
	Layers    []*Layer
	FinalNorm *nn.RMSNorm
	LMHead    *nn.Linear

	batch, seq int
}

// NewModel builds a model with freshly initialized backbone weights.
// Expert construction is separate (NewExpertGrid) because experts may be
// hosted elsewhere; call BindLocalExperts for the conventional
// single-process layout.
func NewModel(cfg Config, rng *rand.Rand, trainable bool) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{
		Cfg:       cfg,
		Embed:     nn.NewEmbedding("embed", rng, cfg.Vocab, cfg.D, trainable),
		FinalNorm: nn.NewRMSNorm("final_norm", cfg.D, trainable),
		LMHead:    nn.NewLinear("lm_head", rng, cfg.D, cfg.Vocab, false, trainable),
	}
	for l := 0; l < cfg.Layers; l++ {
		m.Layers = append(m.Layers, &Layer{
			AttnNorm: nn.NewRMSNorm(fmt.Sprintf("layer%d.attn_norm", l), cfg.D, trainable),
			Attn:     nn.NewAttention(fmt.Sprintf("layer%d.attn", l), rng, cfg.D, cfg.Heads, trainable),
			FFNNorm:  nn.NewRMSNorm(fmt.Sprintf("layer%d.ffn_norm", l), cfg.D, trainable),
			MoE:      NewBlock(l, rng, cfg.D, cfg.Experts, cfg.TopK, trainable),
		})
	}
	return m
}

// NewExpertGrid builds the full [Layers][Experts] expert grid for cfg.
func NewExpertGrid(cfg Config, rng *rand.Rand, trainable bool) [][]*Expert {
	grid := make([][]*Expert, cfg.Layers)
	for l := range grid {
		grid[l] = make([]*Expert, cfg.Experts)
		for e := range grid[l] {
			grid[l][e] = NewExpert(ExpertID{Layer: l, Expert: e}, rng, cfg.D, cfg.Hidden, trainable)
		}
	}
	return grid
}

// BindLocalExperts attaches a LocalExecutor over the grid to every block —
// the conventional, non-distributed layout.
func (m *Model) BindLocalExperts(grid [][]*Expert) *LocalExecutor {
	exec := NewLocalExecutor(grid)
	m.SetExecutor(exec)
	return exec
}

// SetExecutor points every MoE block at the given executor. In VELA this
// is how the backbone is rewired from local experts to the Expert Broker.
func (m *Model) SetExecutor(exec Executor) {
	for _, l := range m.Layers {
		l.MoE.Exec = exec
	}
}

// SetStats installs an AccessStats collector on every block (pass nil to
// disable collection).
func (m *Model) SetStats(s *AccessStats) {
	for _, l := range m.Layers {
		l.MoE.Stats = s
	}
}

// SetObs installs an observability handle on every block (pass nil to
// disable); each forward's gate selections then feed the handle's
// P-drift monitor.
func (m *Model) SetObs(h *obs.Handle) {
	for _, l := range m.Layers {
		l.MoE.Obs = h
	}
}

// SetAuxLossCoef sets the load-balancing coefficient on every block.
func (m *Model) SetAuxLossCoef(c float64) {
	for _, l := range m.Layers {
		l.MoE.AuxLossCoef = c
	}
}

// Params implements nn.Module; it covers the backbone only (embedding,
// attention, norms, gates, LM head) — expert parameters belong to the
// executor's host.
func (m *Model) Params() []*nn.Param {
	ps := m.Embed.Params()
	for _, l := range m.Layers {
		ps = append(ps, l.AttnNorm.Params()...)
		ps = append(ps, l.Attn.Params()...)
		ps = append(ps, l.FFNNorm.Params()...)
		ps = append(ps, l.MoE.Params()...)
	}
	ps = append(ps, m.FinalNorm.Params()...)
	ps = append(ps, m.LMHead.Params()...)
	return ps
}

// backboneLinears returns every backbone linear layer except the gate
// projections — exactly the set the paper attaches LoRA to ("all the
// linear layers except for the gating mechanism").
func (m *Model) backboneLinears() []*nn.Linear {
	var ls []*nn.Linear
	for _, l := range m.Layers {
		ls = append(ls, l.Attn.Linears()...)
	}
	ls = append(ls, m.LMHead)
	return ls
}

// AttachLoRA attaches LoRA adapters (rank r, scaling α) to every backbone
// linear except the gates, freezing the base weights. Expert LoRA is
// attached separately wherever the experts live.
func (m *Model) AttachLoRA(rng *rand.Rand, r int, alpha float64) {
	for _, l := range m.backboneLinears() {
		l.AttachLoRA(rng, r, alpha)
	}
}

// Freeze marks every backbone parameter non-trainable (the state of a
// loaded pre-trained checkpoint before LoRA injection).
func (m *Model) Freeze() {
	for _, p := range m.Params() {
		p.Freeze()
	}
}

// Forward runs the model on a [batch, seqLen] grid of token ids, flattened
// row-major into ids, and returns logits [batch·seqLen, vocab].
func (m *Model) Forward(ids []int, batch, seqLen int) (*tensor.Tensor, error) {
	if len(ids) != batch*seqLen {
		return nil, fmt.Errorf("moe: got %d ids, want %d·%d", len(ids), batch, seqLen)
	}
	m.batch, m.seq = batch, seqLen
	h := m.Embed.Forward(ids)
	rows := batch * seqLen
	for i, l := range m.Layers {
		attnOut := l.Attn.Forward(l.AttnNorm.Forward(h), batch, seqLen)
		h = h.AddInto(attnOut, tensor.Ensure(&l.resA, rows, m.Cfg.D))
		moeOut, err := l.MoE.Forward(l.FFNNorm.Forward(h))
		if err != nil {
			return nil, fmt.Errorf("moe: layer %d: %w", i, err)
		}
		h = h.AddInto(moeOut, tensor.Ensure(&l.resB, rows, m.Cfg.D))
	}
	return m.LMHead.Forward(m.FinalNorm.Forward(h)), nil
}

// Backward propagates dlogits through the whole model, accumulating
// gradients in backbone parameters and (via the executors) expert
// parameters.
//
// When neither the embedding table nor layer 0's attention-norm gain
// trains — every fine-tuning run — nothing below layer 0's attention
// reads the gradient of its input, so the walk ends at that attention's
// parameters (Attention.BackwardParams): the input-gradient products,
// the norm's backward, the residual add and the frozen embedding's
// backward are skipped, and every gradient that is kept has the full
// walk's bits.
func (m *Model) Backward(dlogits *tensor.Tensor) error {
	dh := m.FinalNorm.Backward(m.LMHead.Backward(dlogits))
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		dmoe, err := l.MoE.Backward(dh)
		if err != nil {
			return fmt.Errorf("moe: layer %d backward: %w", i, err)
		}
		// In-place is safe here: dh is FinalNorm's input-gradient buffer
		// throughout the walk, and every norm/attention Backward returns
		// its own distinct buffer.
		dh = dh.AddInPlace(l.FFNNorm.Backward(dmoe))
		if i == 0 && !m.Embed.Table.Trainable && !l.AttnNorm.Gain.Trainable {
			l.Attn.BackwardParams(dh)
			return nil
		}
		dattn := l.Attn.Backward(dh)
		dh = dh.AddInPlace(l.AttnNorm.Backward(dattn))
	}
	m.Embed.Backward(dh)
	return nil
}
