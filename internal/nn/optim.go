package nn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates trainable parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one optimization update and leaves gradients intact;
	// callers zero gradients explicitly between steps.
	Step()
}

// AdamWConfig mirrors the paper's fine-tuning hyperparameters: learning
// rate 3e-5, betas [0.8, 0.999], epsilon 1e-8, weight decay 3e-7.
type AdamWConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// PaperAdamWConfig returns the exact hyperparameters from §V-A of the
// paper.
func PaperAdamWConfig() AdamWConfig {
	return AdamWConfig{LR: 3e-5, Beta1: 0.8, Beta2: 0.999, Eps: 1e-8, WeightDecay: 3e-7}
}

// AdamW is the decoupled-weight-decay Adam optimizer.
type AdamW struct {
	cfg      AdamWConfig
	params   []*Param
	m, v     []*tensor.Tensor
	t        int
	bc1, bc2 float64 // this step's bias-correction denominators

	// stepJob is stepParam as a Fanout job, zeroJob parameter i's
	// gradient clear, and rangeJobs[i] parameter i's update as a
	// ParallelRange job, bound with the parameter set so a step hands the
	// team no fresh closure.
	stepJob, zeroJob func(i int)
	rangeJobs        []func(lo, hi int)
}

// NewAdamW builds an AdamW optimizer over the trainable subset of params.
func NewAdamW(params []*Param, cfg AdamWConfig) *AdamW {
	ps := CollectTrainable(params)
	o := &AdamW{cfg: cfg, params: ps}
	o.stepJob = o.stepParam
	o.zeroJob = func(i int) { o.params[i].zeroGrad() }
	o.m = make([]*tensor.Tensor, len(ps))
	o.v = make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		o.m[i] = tensor.Zeros(p.Value.Shape()...)
		o.v[i] = tensor.Zeros(p.Value.Shape()...)
	}
	o.bindJobs()
	return o
}

// bindJobs binds one ParallelRange job per parameter of the current set.
func (o *AdamW) bindJobs() {
	o.rangeJobs = make([]func(lo, hi int), len(o.params))
	for i := range o.rangeJobs {
		o.rangeJobs[i] = func(lo, hi int) {
			adamwUpdate(o.params[i].Value.Data, o.params[i].Grad.Data, o.m[i].Data, o.v[i].Data, o.cfg, o.bc1, o.bc2, lo, hi)
		}
	}
}

// Rebind replaces the optimizer's parameter set in place, carrying the
// first/second moment estimates of every parameter that is in both the
// old and the new set (matched by identity) and zero-initializing
// moments for new parameters. The broker's Expert Manager rebinds as
// experts migrate on or off a worker, so the surviving experts'
// trajectories are unchanged. The global step count t is retained so
// surviving parameters continue their bias-correction schedule; freshly
// added parameters inherit it, which slightly weakens their initial bias
// correction but keeps the optimizer state coherent.
func (o *AdamW) Rebind(params []*Param) {
	type moments struct{ m, v *tensor.Tensor }
	old := make(map[*Param]moments, len(o.params))
	for i, p := range o.params {
		old[p] = moments{o.m[i], o.v[i]}
	}
	ps := CollectTrainable(params)
	o.params = ps
	o.m = make([]*tensor.Tensor, len(ps))
	o.v = make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		if s, ok := old[p]; ok {
			o.m[i], o.v[i] = s.m, s.v
		} else {
			o.m[i] = tensor.Zeros(p.Value.Shape()...)
			o.v[i] = tensor.Zeros(p.Value.Shape()...)
		}
	}
	o.bindJobs()
}

// StepCount returns the number of optimization steps applied so far —
// the bias-correction clock t.
func (o *AdamW) StepCount() int { return o.t }

// SetStepCount overrides the bias-correction clock. Checkpoint restore
// uses it so a resumed run continues the exact bias-correction schedule
// of the interrupted one.
func (o *AdamW) SetStepCount(t int) { o.t = t }

// Moments returns the first/second moment estimates tracked for p, or
// (nil, nil) when p is not in the optimizer's trainable set. The returned
// tensors are the live estimates, not copies; callers that persist them
// must copy before the next Step.
func (o *AdamW) Moments(p *Param) (m, v *tensor.Tensor) {
	for i, q := range o.params {
		if q == p {
			return o.m[i], o.v[i]
		}
	}
	return nil, nil
}

// SetMoments copies m and v into the estimates tracked for p. It returns
// false — leaving the estimates untouched — when p is not in the
// trainable set or either slice length mismatches the parameter.
func (o *AdamW) SetMoments(p *Param, m, v []float64) bool {
	for i, q := range o.params {
		if q != p {
			continue
		}
		if len(m) != o.m[i].Len() || len(v) != o.v[i].Len() {
			return false
		}
		copy(o.m[i].Data, m)
		copy(o.v[i].Data, v)
		return true
	}
	return false
}

// Step implements Optimizer. Parameters are updated side by side once
// their elements together reach the parallel threshold — a layer's LoRA
// adapters are many small tensors, none worth splitting on its own. Each
// element is owned by exactly one goroutine, a parameter by one job and
// its elements by one shard, so the update stays bit-deterministic under
// parallelism.
func (o *AdamW) Step() {
	o.t++
	o.bc1 = 1 - math.Pow(o.cfg.Beta1, float64(o.t))
	o.bc2 = 1 - math.Pow(o.cfg.Beta2, float64(o.t))
	o.each(o.stepJob)
}

// ZeroGrads clears the gradients of the optimizer's parameters, side by
// side as Step updates them.
func (o *AdamW) ZeroGrads() { o.each(o.zeroJob) }

// each runs job for every parameter: side by side through tensor.Fanout
// once their elements together reach the parallel threshold, because
// LoRA adapters are many tensors each too small to split.
func (o *AdamW) each(job func(i int)) {
	n := 0
	for _, p := range o.params {
		n += p.Value.Len()
	}
	if tensor.SerialRange(n) {
		for i := range o.params {
			job(i)
		}
		return
	}
	tensor.Fanout(len(o.params), job)
}

// stepParam applies this step's update to parameter i.
func (o *AdamW) stepParam(i int) {
	tensor.ParallelRange(o.params[i].Value.Len(), o.rangeJobs[i])
}

// adamwUpdate applies the AdamW update to elements [lo, hi) of one
// parameter: the vector body, where the CPU has one, over the longest
// prefix of whole groups of eight, and adamwRange over the rest. Both are
// bit for bit adamwRange.
func adamwUpdate(w, g, m, v []float64, c AdamWConfig, bc1, bc2 float64, lo, hi int) {
	lo += adamwVec(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], c, bc1, bc2)
	adamwRange(w, g, m, v, c, bc1, bc2, lo, hi)
}

// adamwRange applies the AdamW update to elements [lo, hi) of one
// parameter, with bc1/bc2 the bias-correction denominators for this step:
// the scalar loop, the definition the vector body reproduces. Each
// operation rounds on its own; under GOAMD64=v3 the compiler could fuse a
// multiply and add into one FMA here, which TestAdamWBodiesBitIdentical
// would report.
func adamwRange(w, g, m, v []float64, c AdamWConfig, bc1, bc2 float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		m[j] = c.Beta1*m[j] + (1-c.Beta1)*g[j]
		v[j] = c.Beta2*v[j] + (1-c.Beta2)*g[j]*g[j]
		mh := m[j] / bc1
		vh := v[j] / bc2
		w[j] -= c.LR * (mh/(math.Sqrt(vh)+c.Eps) + c.WeightDecay*w[j])
	}
}

// Loss holds CrossEntropy's step-persistent buffers: the gradient it
// returns, valid until its next call, and the per-row loss terms.
type Loss struct {
	dlogits *tensor.Tensor
	terms   []float64
	// logits and targets are the row pass's operands while it runs.
	logits  *tensor.Tensor
	targets []int
	// rowsJob is lossRows bound once, so a step hands the team no fresh
	// closure.
	rowsJob func(lo, hi int)
}

// lossRowCost is the work (units of tensor.DefaultParallelThreshold) of
// one logit: an exponential, the softmax's other passes and the
// gradient's scaling, 5.5 ns on one core (BenchmarkCrossEntropy).
const lossRowCost = 14

// NewLoss returns a Loss with no buffers yet.
func NewLoss() *Loss {
	l := &Loss{}
	l.rowsJob = l.lossRows
	return l
}

// CrossEntropy computes the mean cross-entropy loss of logits [n, vocab]
// against integer targets, and the gradient ∂loss/∂logits in l's buffer.
// Rows run side by side; the loss sums their terms in row order.
func (l *Loss) CrossEntropy(logits *tensor.Tensor, targets []int) (loss float64, dlogits *tensor.Tensor) {
	n, v := logits.Rows(), logits.Cols()
	if len(targets) != n {
		panic("nn: CrossEntropy target length mismatch")
	}
	tensor.Ensure(&l.dlogits, n, v)
	if cap(l.terms) >= n {
		l.terms = l.terms[:n]
	} else {
		l.terms = make([]float64, n)
	}
	l.logits, l.targets = logits, targets
	tensor.ParallelRangeCost(n, lossRowCost*n*v, l.rowsJob)
	l.logits, l.targets = nil, nil
	for _, term := range l.terms {
		loss -= term
	}
	return loss, l.dlogits
}

// lossRows writes rows [lo, hi) of the gradient, softmax(row)/n less 1/n
// at the target, and each row's loss term log(p_target)/n.
func (l *Loss) lossRows(lo, hi int) {
	n := len(l.targets)
	inv := 1 / float64(n)
	for i := lo; i < hi; i++ {
		dr := l.dlogits.Row(i)
		tensor.SoftmaxInto(dr, l.logits.Row(i))
		tgt := l.targets[i]
		p := dr[tgt]
		if p < 1e-12 {
			p = 1e-12
		}
		l.terms[i] = math.Log(p) * inv
		for j := range dr {
			dr[j] *= inv
		}
		dr[tgt] -= inv
	}
}
