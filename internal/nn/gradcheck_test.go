package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// scalarLoss is a deterministic scalar function of a tensor used as the
// training objective in gradient checks: L(y) = Σ sin(i)·y_i, whose
// gradient w.r.t. y is simply the coefficient vector.
func scalarLoss(y *tensor.Tensor) (float64, *tensor.Tensor) {
	var l float64
	dy := tensor.Zeros(y.Shape()...)
	for i, v := range y.Data {
		c := math.Sin(float64(i) + 1)
		l += c * v
		dy.Data[i] = c
	}
	return l, dy
}

// numGrad computes the central finite-difference gradient of run() with
// respect to the tensor t.
func numGrad(t *tensor.Tensor, run func() float64) *tensor.Tensor {
	const h = 1e-6
	g := tensor.Zeros(t.Shape()...)
	for i := range t.Data {
		orig := t.Data[i]
		t.Data[i] = orig + h
		lp := run()
		t.Data[i] = orig - h
		lm := run()
		t.Data[i] = orig
		g.Data[i] = (lp - lm) / (2 * h)
	}
	return g
}

func assertClose(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	for i := range want.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		scale := math.Abs(want.Data[i]) + 1
		if diff/scale > tol {
			t.Fatalf("%s grad[%d]: analytic %.8g vs numeric %.8g", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestLinearGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("lin", rng, 4, 3, true, true)
	x := tensor.Randn(rng, 1, 5, 4)

	run := func() float64 {
		loss, _ := scalarLoss(l.Forward(x))
		return loss
	}
	ZeroGrads(l.Params())
	y := l.Forward(x)
	_, dy := scalarLoss(y)
	dx := l.Backward(dy)

	assertClose(t, "linear.W", l.W.Grad, numGrad(l.W.Value, run), 1e-5)
	assertClose(t, "linear.bias", l.Bias.Grad, numGrad(l.Bias.Value, run), 1e-5)
	assertClose(t, "linear.x", dx, numGrad(x, run), 1e-5)
}

func TestLoRALinearGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear("lin", rng, 4, 3, false, true)
	l.AttachLoRA(rng, 2, 16)
	// Give B nonzero values so its gradient path is exercised.
	for i := range l.LoRA.B.Value.Data {
		l.LoRA.B.Value.Data[i] = rng.NormFloat64() * 0.3
	}
	x := tensor.Randn(rng, 1, 5, 4)

	run := func() float64 {
		loss, _ := scalarLoss(l.Forward(x))
		return loss
	}
	ZeroGrads(l.Params())
	y := l.Forward(x)
	_, dy := scalarLoss(y)
	dx := l.Backward(dy)

	if l.W.Trainable {
		t.Fatal("AttachLoRA must freeze the base weight")
	}
	if l.W.Grad != nil {
		t.Fatal("a frozen base weight must carry no gradient buffer")
	}
	assertClose(t, "lora.A", l.LoRA.A.Grad, numGrad(l.LoRA.A.Value, run), 1e-5)
	assertClose(t, "lora.B", l.LoRA.B.Grad, numGrad(l.LoRA.B.Value, run), 1e-5)
	assertClose(t, "lora.x", dx, numGrad(x, run), 1e-5)
}

func TestLoRAZeroInitIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear("lin", rng, 6, 6, false, true)
	x := tensor.Randn(rng, 1, 3, 6)
	before := l.Forward(x).Clone()
	l.AttachLoRA(rng, 2, 16)
	after := l.Forward(x)
	for i := range before.Data {
		if !testutil.BitEqual(before.Data[i], after.Data[i]) {
			t.Fatal("freshly attached LoRA (B=0) must not change the output")
		}
	}
}

func TestEffectiveWeightMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLinear("lin", rng, 4, 4, false, true)
	l.AttachLoRA(rng, 2, 8)
	for i := range l.LoRA.B.Value.Data {
		l.LoRA.B.Value.Data[i] = rng.NormFloat64()
	}
	x := tensor.Randn(rng, 1, 2, 4)
	want := l.Forward(x)
	// The merged weight W + scale·A·B a LoRA-folded layer would use.
	w := axpy(l.W.Value.Clone(), l.LoRA.Scale, product(l.LoRA.A.Value, l.LoRA.B.Value, false, false))
	got := product(x, w, false, false)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("the merged weight must reproduce the layer output")
		}
	}
}

func TestRMSNormGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewRMSNorm("norm", 5, true)
	for i := range n.Gain.Value.Data {
		n.Gain.Value.Data[i] = 1 + 0.1*rng.NormFloat64()
	}
	x := tensor.Randn(rng, 1, 4, 5)

	run := func() float64 {
		loss, _ := scalarLoss(n.Forward(x))
		return loss
	}
	ZeroGrads(n.Params())
	y := n.Forward(x)
	_, dy := scalarLoss(y)
	dx := n.Backward(dy)

	assertClose(t, "rmsnorm.gain", n.Gain.Grad, numGrad(n.Gain.Value, run), 1e-5)
	assertClose(t, "rmsnorm.x", dx, numGrad(x, run), 1e-5)
}

func TestRMSNormNormalizes(t *testing.T) {
	n := NewRMSNorm("norm", 4, false)
	x := tensor.New([]float64{2, 2, 2, 2}, 1, 4)
	y := n.Forward(x)
	for _, v := range y.Data {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("constant row should normalize to ~1, got %v", y.Data)
		}
	}
}

func TestSwiGLUGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewSwiGLU("ffn", rng, 4, 6, true)
	x := tensor.Randn(rng, 1, 3, 4)

	run := func() float64 {
		loss, _ := scalarLoss(s.Forward(x))
		return loss
	}
	ZeroGrads(s.Params())
	y := s.Forward(x)
	_, dy := scalarLoss(y)
	dx := s.Backward(dy)

	assertClose(t, "swiglu.w1", s.W1.W.Grad, numGrad(s.W1.W.Value, run), 1e-4)
	assertClose(t, "swiglu.w2", s.W2.W.Grad, numGrad(s.W2.W.Value, run), 1e-4)
	assertClose(t, "swiglu.w3", s.W3.W.Grad, numGrad(s.W3.W.Value, run), 1e-4)
	assertClose(t, "swiglu.x", dx, numGrad(x, run), 1e-4)
}

func TestAttentionGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const batch, seq, d = 2, 3, 4
	a := NewAttention("attn", rng, d, 2, true)
	x := tensor.Randn(rng, 1, batch*seq, d)

	run := func() float64 {
		loss, _ := scalarLoss(a.Forward(x, batch, seq))
		return loss
	}
	ZeroGrads(a.Params())
	y := a.Forward(x, batch, seq)
	_, dy := scalarLoss(y)
	dx := a.Backward(dy)

	assertClose(t, "attn.wq", a.Wq.W.Grad, numGrad(a.Wq.W.Value, run), 1e-4)
	assertClose(t, "attn.wk", a.Wk.W.Grad, numGrad(a.Wk.W.Value, run), 1e-4)
	assertClose(t, "attn.wv", a.Wv.W.Grad, numGrad(a.Wv.W.Value, run), 1e-4)
	assertClose(t, "attn.wo", a.Wo.W.Grad, numGrad(a.Wo.W.Value, run), 1e-4)
	assertClose(t, "attn.x", dx, numGrad(x, run), 1e-4)
}

func TestAttentionIsCausal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const seq, d = 4, 4
	a := NewAttention("attn", rng, d, 2, false)
	x := tensor.Randn(rng, 1, seq, d)
	y1 := a.Forward(x, 1, seq).Clone()
	// Perturb the last token; earlier outputs must not change.
	x2 := x.Clone()
	for j := 0; j < d; j++ {
		x2.Row(seq - 1)[j] += 10
	}
	y2 := a.Forward(x2, 1, seq)
	for tk := 0; tk < seq-1; tk++ {
		for j := 0; j < d; j++ {
			if !testutil.BitEqual(y1.At(tk, j), y2.At(tk, j)) {
				t.Fatalf("future token leaked into position %d", tk)
			}
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEmbedding("emb", rng, 10, 4, true)
	ids := []int{1, 3, 1}
	y := e.Forward(ids)
	for j := 0; j < 4; j++ {
		if !testutil.BitEqual(y.At(0, j), y.At(2, j)) {
			t.Fatal("same id must embed identically")
		}
	}
	dy := tensor.Full(1, 3, 4)
	e.Backward(dy)
	// Row 1 was used twice, so its gradient is 2 per element.
	for j := 0; j < 4; j++ {
		if !testutil.Close(e.Table.Grad.At(1, j), 2) {
			t.Fatalf("grad for id 1 = %v, want 2", e.Table.Grad.At(1, j))
		}
		if !testutil.Close(e.Table.Grad.At(3, j), 1) {
			t.Fatalf("grad for id 3 = %v, want 1", e.Table.Grad.At(3, j))
		}
		if !testutil.Close(e.Table.Grad.At(0, j), 0) {
			t.Fatal("unused id must have zero gradient")
		}
	}
}

func TestCrossEntropyGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := tensor.Randn(rng, 1, 3, 5)
	targets := []int{1, 4, 0}
	_, dl := NewLoss().CrossEntropy(logits, targets)
	num := numGrad(logits, func() float64 {
		l, _ := NewLoss().CrossEntropy(logits, targets)
		return l
	})
	assertClose(t, "xent", dl, num, 1e-5)
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.Zeros(1, 3)
	logits.Set(100, 0, 2)
	loss, _ := NewLoss().CrossEntropy(logits, []int{2})
	if loss > 1e-6 {
		t.Fatalf("near-certain correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with AdamW; must approach 3.
	p := newParam("w", tensor.New([]float64{0}, 1), true)
	cfg := AdamWConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	o := NewAdamW([]*Param{p}, cfg)
	for i := 0; i < 500; i++ {
		p.zeroGrad()
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		o.Step()
	}
	if math.Abs(p.Value.Data[0]-3) > 0.05 {
		t.Fatalf("AdamW failed to converge: w=%v", p.Value.Data[0])
	}
}

func TestPaperAdamWConfig(t *testing.T) {
	c := PaperAdamWConfig()
	if !testutil.Close(c.LR, 3e-5) || !testutil.Close(c.Beta1, 0.8) || !testutil.Close(c.Beta2, 0.999) || !testutil.Close(c.Eps, 1e-8) || !testutil.Close(c.WeightDecay, 3e-7) {
		t.Fatalf("paper AdamW config drifted: %+v", c)
	}
}

func TestGradNormAndHelpers(t *testing.T) {
	a := newParam("a", tensor.New([]float64{0, 0}, 2), true)
	b := newParam("b", tensor.New([]float64{0}, 1), false)
	if b.Grad != nil {
		t.Fatal("a frozen parameter must carry no gradient buffer")
	}
	c := newParam("c", tensor.New([]float64{0}, 1), true)
	if c.Freeze(); c.Trainable || c.Grad != nil {
		t.Fatal("Freeze must clear Trainable and drop the gradient buffer")
	}
	a.Grad.Data[0], a.Grad.Data[1] = 3, 4
	if tr := CollectTrainable([]*Param{a, b}); len(tr) != 1 || tr[0] != a {
		t.Fatal("CollectTrainable wrong")
	}
	ZeroGrads([]*Param{a, b})
	if !testutil.Close(a.Grad.Data[0], 0) || !testutil.Close(a.Grad.Data[1], 0) || b.Grad != nil {
		t.Fatal("ZeroGrads failed")
	}
}
