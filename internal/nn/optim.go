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

// Rebinder is implemented by optimizers that can replace their parameter
// set in place while preserving per-parameter state (moment estimates,
// step counts) for parameters present both before and after the change.
// The broker's Expert Manager uses this when experts migrate on or off a
// worker, so the surviving experts' optimizer trajectories are unchanged.
type Rebinder interface {
	Rebind(params []*Param)
}

// SGD is plain stochastic gradient descent, w ← w − lr·∇w, the optimizer
// assumed by Theorem 1 of the paper.
type SGD struct {
	LR     float64
	params []*Param
}

// NewSGD builds an SGD optimizer over the trainable subset of params.
func NewSGD(params []*Param, lr float64) *SGD {
	return &SGD{LR: lr, params: CollectTrainable(params)}
}

// Step implements Optimizer.
func (o *SGD) Step() {
	for _, p := range o.params {
		p.Value.AxpyInPlace(-o.LR, p.Grad)
	}
}

// Rebind implements Rebinder. SGD is stateless, so rebinding just swaps
// the parameter list.
func (o *SGD) Rebind(params []*Param) { o.params = CollectTrainable(params) }

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

	// stepJob is stepParam as a Fanout job, bound once so a step hands the
	// team no fresh closure.
	stepJob func(i int)
}

// NewAdamW builds an AdamW optimizer over the trainable subset of params.
func NewAdamW(params []*Param, cfg AdamWConfig) *AdamW {
	ps := CollectTrainable(params)
	o := &AdamW{cfg: cfg, params: ps}
	o.stepJob = o.stepParam
	o.m = make([]*tensor.Tensor, len(ps))
	o.v = make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		o.m[i] = tensor.Zeros(p.Value.Shape()...)
		o.v[i] = tensor.Zeros(p.Value.Shape()...)
	}
	return o
}

// Rebind implements Rebinder: it replaces the optimizer's parameter set,
// carrying the first/second moment estimates of every parameter that is
// in both the old and the new set (matched by identity) and zero-
// initializing moments for new parameters. The global step count t is
// retained so surviving parameters continue their bias-correction
// schedule; freshly added parameters inherit it, which slightly weakens
// their initial bias correction but keeps the optimizer state coherent.
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
	n := 0
	for _, p := range o.params {
		n += p.Value.Len()
	}
	if tensor.SerialRange(n) {
		for i := range o.params {
			o.stepParam(i)
		}
		return
	}
	tensor.Fanout(len(o.params), o.stepJob)
}

// stepParam applies this step's update to parameter i.
func (o *AdamW) stepParam(i int) {
	c, bc1, bc2 := o.cfg, o.bc1, o.bc2
	m, v := o.m[i].Data, o.v[i].Data
	w, g := o.params[i].Value.Data, o.params[i].Grad.Data
	if tensor.SerialRange(len(w)) {
		adamwRange(w, g, m, v, c, bc1, bc2, 0, len(w))
		return
	}
	tensor.ParallelRange(len(w), func(lo, hi int) {
		adamwRange(w, g, m, v, c, bc1, bc2, lo, hi)
	})
}

// adamwRange applies the AdamW update to elements [lo, hi) of one
// parameter, with bc1/bc2 the bias-correction denominators for this step.
func adamwRange(w, g, m, v []float64, c AdamWConfig, bc1, bc2 float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		m[j] = c.Beta1*m[j] + (1-c.Beta1)*g[j]
		v[j] = c.Beta2*v[j] + (1-c.Beta2)*g[j]*g[j]
		mh := m[j] / bc1
		vh := v[j] / bc2
		w[j] -= c.LR * (mh/(math.Sqrt(vh)+c.Eps) + c.WeightDecay*w[j])
	}
}

// CrossEntropy computes the mean cross-entropy loss of logits [n, vocab]
// against integer targets, and the gradient ∂loss/∂logits.
func CrossEntropy(logits *tensor.Tensor, targets []int) (loss float64, dlogits *tensor.Tensor) {
	n, v := logits.Rows(), logits.Cols()
	if len(targets) != n {
		panic("nn: CrossEntropy target length mismatch")
	}
	dlogits = tensor.Zeros(n, v)
	probs := make([]float64, v)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		tensor.SoftmaxInto(probs, logits.Row(i))
		tgt := targets[i]
		p := probs[tgt]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p) * inv
		dr := dlogits.Row(i)
		for j := 0; j < v; j++ {
			dr[j] = probs[j] * inv
		}
		dr[tgt] -= inv
	}
	return loss, dlogits
}
