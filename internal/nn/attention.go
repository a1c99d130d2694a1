package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Attention is causal multi-head self-attention. The projections are
// Linear layers so LoRA adapters can be attached to them exactly as the
// paper does ("we fine-tuned all the linear layers except for the gating
// mechanism").
//
// Forward takes the flattened token matrix [batch·seqLen, d] plus the
// batch/sequence geometry, mirroring the paper's observation that MoE
// blocks flatten [batch, seq, feature] to [batch·seq, feature].
type Attention struct {
	Name  string
	Wq    *Linear
	Wk    *Linear
	Wv    *Linear
	Wo    *Linear
	Heads int

	d, dh   int
	scale   float64 // 1/√dh
	batch   int
	seqLen  int
	q, k, v *tensor.Tensor
	att     [][]*tensor.Tensor // [batch][head] -> [T,T] attention weights

	// Step-persistent scratch (tensor.Ensure): the context and the
	// per-projection gradients, each written block by block by the grid.
	// The [T,T] attention weights come from the arena (Get in Forward, Put
	// in Backward); the att index slices are reused across steps. dctx is
	// Wo's input gradient, held for the length of Backward.
	ctx, dctx, dq, dk, dv *tensor.Tensor

	// x is the projections' input while projectJob runs; dxq, dxk and dxv
	// are the three projections' input gradients, summed into dxq.
	x, dxq, dxk, dxv *tensor.Tensor

	// forwardJob and backwardJob are forwardHead and backwardHead as
	// Fanout jobs, and projectJob, projectBackJob and projectParamsJob
	// the projections' forward, Backward and BackwardParams, bound once so
	// a step hands the team no fresh closure.
	forwardJob, backwardJob                      func(j int)
	projectJob, projectBackJob, projectParamsJob func(i int)
}

// NewAttention builds an attention layer with the given model width and
// head count; d must be divisible by heads.
func NewAttention(name string, rng *rand.Rand, d, heads int, trainable bool) *Attention {
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: attention width %d not divisible by %d heads", d, heads))
	}
	a := &Attention{
		Name:  name,
		Wq:    NewLinear(name+".wq", rng, d, d, false, trainable),
		Wk:    NewLinear(name+".wk", rng, d, d, false, trainable),
		Wv:    NewLinear(name+".wv", rng, d, d, false, trainable),
		Wo:    NewLinear(name+".wo", rng, d, d, false, trainable),
		Heads: heads,
		d:     d,
		dh:    d / heads,
		scale: 1 / math.Sqrt(float64(d/heads)),
	}
	a.forwardJob, a.backwardJob = a.forwardHead, a.backwardHead
	a.projectJob, a.projectBackJob, a.projectParamsJob = a.project, a.projectBack, a.projectParams
	return a
}

// Params implements Module.
func (a *Attention) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Linears returns the four projection layers, for LoRA attachment.
func (a *Attention) Linears() []*Linear { return []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} }

// headView copies head h of sequence b out of the flattened [B·T, d]
// tensor m into a [T, dh] arena buffer. The caller owns the result and
// must Put it back.
func (a *Attention) headView(m *tensor.Tensor, b, h int) *tensor.Tensor {
	out := tensor.GetDirty(a.seqLen, a.dh)
	for t := 0; t < a.seqLen; t++ {
		src := m.Row(b*a.seqLen + t)
		copy(out.Row(t), src[h*a.dh:(h+1)*a.dh])
	}
	return out
}

// headSet writes the [T, dh] matrix hm into head h of sequence b of the
// flattened tensor m as +0 + hm: what a zeroed m accumulating hm holds (a
// −0 lands as +0), so m needs no zeroing. Every (b, h) grid job writes its
// own block of ctx, dq, dk and dv once, and together they cover it.
func (a *Attention) headSet(m, hm *tensor.Tensor, b, h int) {
	for t := 0; t < a.seqLen; t++ {
		dst := m.Row(b*a.seqLen + t)[h*a.dh : (h+1)*a.dh]
		src := hm.Row(t)
		for j := range dst {
			dst[j] = 0 + src[j]
		}
	}
}

// Forward computes causal self-attention over x of shape [batch·seqLen, d].
func (a *Attention) Forward(x *tensor.Tensor, batch, seqLen int) *tensor.Tensor {
	if x.Rows() != batch*seqLen || x.Cols() != a.d {
		panic(fmt.Sprintf("nn: %s got %v, want [%d, %d]", a.Name, x.Shape(), batch*seqLen, a.d))
	}
	a.batch, a.seqLen = batch, seqLen
	a.x = x
	a.projections(a.projectJob)
	a.x = nil
	return a.attend()
}

// attend runs the head grid over a.q, a.k and a.v and the output
// projection.
func (a *Attention) attend() *tensor.Tensor {
	batch, seqLen := a.batch, a.seqLen
	tensor.Ensure(&a.ctx, batch*seqLen, a.d)
	if len(a.att) != batch || (batch > 0 && len(a.att[0]) != a.Heads) {
		a.att = make([][]*tensor.Tensor, batch)
		for b := range a.att {
			a.att[b] = make([]*tensor.Tensor, a.Heads)
		}
	}
	a.grid(a.forwardJob)
	return a.Wo.Forward(a.ctx)
}

// projections runs job for Wq, Wk and Wv (i = 0, 1, 2). Each job touches
// only its own Linear and its own result, and reads a shared input, so
// the three run side by side through tensor.Fanout once their products
// (3·rows·d² multiply-adds) reach the parallel threshold: a rank-8
// adapter's products are too small to split, so the three projections
// are what gives the second core a share of them.
func (a *Attention) projections(job func(i int)) {
	if tensor.Serial(3, 3*a.batch*a.seqLen*a.d*a.d) {
		for i := 0; i < 3; i++ {
			job(i)
		}
		return
	}
	tensor.Fanout(3, job)
}

// project is projection i's forward over a.x.
func (a *Attention) project(i int) {
	switch i {
	case 0:
		a.q = a.Wq.Forward(a.x)
	case 1:
		a.k = a.Wk.Forward(a.x)
	default:
		a.v = a.Wv.Forward(a.x)
	}
}

// projectBack is projection i's Backward from its gradient in a.dq,
// a.dk or a.dv.
func (a *Attention) projectBack(i int) {
	switch i {
	case 0:
		a.dxq = a.Wq.Backward(a.dq)
	case 1:
		a.dxk = a.Wk.Backward(a.dk)
	default:
		a.dxv = a.Wv.Backward(a.dv)
	}
}

// projectParams is projection i's BackwardParams.
func (a *Attention) projectParams(i int) {
	switch i {
	case 0:
		a.Wq.backwardGrads(a.dq)
	case 1:
		a.Wk.backwardGrads(a.dk)
	default:
		a.Wv.backwardGrads(a.dv)
	}
}

// grid runs job once per (b, h) pair, j = b·Heads + h. Each job writes
// only its own head's column block of the step's accumulators and its own
// att slot, so the pairs run side by side through tensor.Fanout once the
// grid's score products (batch·heads·T²·dh multiply-adds) reach the
// parallel threshold; below it — d=32 at T=32..48 — the heads' data
// crossing between cores costs more than the second core saves.
func (a *Attention) grid(job func(j int)) {
	n := a.batch * a.Heads
	if tensor.Serial(n, n*a.seqLen*a.seqLen*a.dh) {
		for j := 0; j < n; j++ {
			job(j)
		}
		return
	}
	tensor.Fanout(n, job)
}

// forwardHead computes grid job j: the attention weights of head h of
// sequence b into a.att[b][h] and its context into head h's columns of
// a.ctx.
func (a *Attention) forwardHead(j int) {
	b, h, seqLen := j/a.Heads, j%a.Heads, a.seqLen
	qh := a.headView(a.q, b, h)
	kh := a.headView(a.k, b, h)
	vh := a.headView(a.v, b, h)
	scores := tensor.GEMM(tensor.GetDirty(seqLen, seqLen), qh, kh, false, true, a.scale, false, nil)
	// Causal mask + per-row softmax over the visible prefix. The strict
	// upper triangle must stay zero (the combine below reads full rows),
	// so the buffer comes from Get, not GetDirty.
	att := tensor.Get(seqLen, seqLen)
	for t := 0; t < seqLen; t++ {
		tensor.SoftmaxInto(att.Row(t)[:t+1], scores.Row(t)[:t+1])
	}
	a.att[b][h] = att
	av := tensor.GEMM(tensor.GetDirty(seqLen, a.dh), att, vh, false, false, 1, false, nil)
	a.headSet(a.ctx, av, b, h)
	tensor.Put(av)
	tensor.Put(scores)
	tensor.Put(qh)
	tensor.Put(kh)
	tensor.Put(vh)
}

// Backward propagates dy through the attention layer and returns dx: the
// three projections' input gradients summed q, then k, then v into Wq's
// buffer.
func (a *Attention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	a.backwardQKV(dy)
	a.projections(a.projectBackJob)
	dx := a.dxq.AddInPlace(a.dxk).AddInPlace(a.dxv)
	a.dxq, a.dxk, a.dxv = nil, nil, nil
	return dx
}

// BackwardParams is Backward for a layer whose input gradient nothing
// reads: the same parameter gradients, bit for bit, without the three
// projections' input-gradient products (Linear.BackwardParams).
func (a *Attention) BackwardParams(dy *tensor.Tensor) {
	a.backwardQKV(dy)
	a.projections(a.projectParamsJob)
}

// backwardQKV propagates dy through the output projection and the heads,
// leaving the gradients of q, k and v in a.dq, a.dk and a.dv.
func (a *Attention) backwardQKV(dy *tensor.Tensor) {
	if a.q == nil {
		panic(fmt.Sprintf("nn: %s Backward called before Forward", a.Name))
	}
	a.dctx = a.Wo.Backward(dy)
	tensor.Ensure(&a.dq, a.batch*a.seqLen, a.d)
	tensor.Ensure(&a.dk, a.batch*a.seqLen, a.d)
	tensor.Ensure(&a.dv, a.batch*a.seqLen, a.d)
	a.grid(a.backwardJob)
	a.dctx = nil
	a.q, a.k, a.v = nil, nil, nil
}

// backwardHead propagates grid job j, head h of sequence b: it reads
// a.dctx's head columns, adds the head's gradients into its columns of
// a.dq, a.dk and a.dv, and returns a.att[b][h] to the arena.
func (a *Attention) backwardHead(j int) {
	b, h := j/a.Heads, j%a.Heads
	att := a.att[b][h]
	qh := a.headView(a.q, b, h)
	kh := a.headView(a.k, b, h)
	vh := a.headView(a.v, b, h)
	dch := a.headView(a.dctx, b, h)

	// ctx_h = att @ v_h
	datt := tensor.GEMM(tensor.GetDirty(a.seqLen, a.seqLen), dch, vh, false, true, 1, false, nil)
	dvh := tensor.GEMM(tensor.GetDirty(a.seqLen, a.dh), att, dch, true, false, 1, false, nil)

	// Softmax backward per row: ds = att ⊙ (datt − ⟨datt, att⟩). Rows are
	// written only up to the causal prefix, so the strict upper triangle
	// must come zeroed (Get): the dqh/dkh products below read full rows.
	dscores := tensor.Get(a.seqLen, a.seqLen)
	for t := 0; t < a.seqLen; t++ {
		ar, dar, dsr := att.Row(t), datt.Row(t), dscores.Row(t)
		var dot float64
		for s := 0; s <= t; s++ {
			dot += dar[s] * ar[s]
		}
		for s := 0; s <= t; s++ {
			dsr[s] = ar[s] * (dar[s] - dot)
		}
	}
	dqh := tensor.GEMM(tensor.GetDirty(a.seqLen, a.dh), dscores, kh, false, false, a.scale, false, nil)
	dkh := tensor.GEMM(tensor.GetDirty(a.seqLen, a.dh), dscores, qh, true, false, a.scale, false, nil)

	a.headSet(a.dq, dqh, b, h)
	a.headSet(a.dk, dkh, b, h)
	a.headSet(a.dv, dvh, b, h)

	tensor.Put(dqh)
	tensor.Put(dkh)
	tensor.Put(dscores)
	tensor.Put(dvh)
	tensor.Put(datt)
	tensor.Put(dch)
	tensor.Put(vh)
	tensor.Put(kh)
	tensor.Put(qh)
	tensor.Put(att)
	a.att[b][h] = nil
}
