package moe

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestGateRoutingBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := newGate("g", rng, 8, 6, 2, false)
	x := tensor.Randn(rng, 1, 10, 8)
	r := g.Forward(x)
	if len(r.Experts) != 10 || len(r.Weights) != 10 {
		t.Fatal("routing must cover every token")
	}
	for tk := 0; tk < 10; tk++ {
		if len(r.Experts[tk]) != 2 {
			t.Fatalf("token %d selected %d experts, want 2", tk, len(r.Experts[tk]))
		}
		// Weights normalized over the selected set.
		sum := r.Weights[tk][0] + r.Weights[tk][1]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("weights must sum to 1, got %v", sum)
		}
		// Selected experts are the argmax pair of the softmax row.
		row := r.Scores.Row(tk)
		want := make([]int, 2)
		tensor.ArgTopKInto(want, row)
		if r.Experts[tk][0] != want[0] || r.Experts[tk][1] != want[1] {
			t.Fatalf("selection %v does not match top-2 %v", r.Experts[tk], want)
		}
		// SelectedMass consistent with scores.
		mass := row[r.Experts[tk][0]] + row[r.Experts[tk][1]]
		if math.Abs(mass-r.SelectedMass[tk]) > 1e-12 {
			t.Fatal("SelectedMass inconsistent")
		}
	}
}

func TestGateInvalidTopKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newGate("g", rand.New(rand.NewSource(1)), 4, 2, 3, false)
}

func TestBlockForwardMatchesManualCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const d, E, n = 6, 4, 5
	b := newBlock(0, rng, d, E, 2, false)
	grid := [][]*Expert{make([]*Expert, E)}
	for e := 0; e < E; e++ {
		grid[0][e] = NewExpert(ExpertID{0, e}, rng, d, 8, false)
	}
	b.Exec = newLocalExecutor(grid)
	x := tensor.Randn(rng, 1, n, d)
	y, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	r := b.LastRouting()
	// Recompute by hand: y_t = Σ w_j · f_j(x_t).
	for tk := 0; tk < n; tk++ {
		want := tensor.Zeros(1, d)
		xt := tensor.New(append([]float64(nil), x.Row(tk)...), 1, d)
		for j, e := range r.Experts[tk] {
			fe := grid[0][e].Forward(xt)
			for c := range want.Data {
				want.Data[c] += r.Weights[tk][j] * fe.Data[c]
			}
		}
		for c := 0; c < d; c++ {
			if math.Abs(y.At(tk, c)-want.At(0, c)) > 1e-9 {
				t.Fatalf("token %d output mismatch: %v vs %v", tk, y.At(tk, c), want.At(0, c))
			}
		}
	}
}

func TestBlockStatsRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, E, L = 6, 4, 1
	b := newBlock(0, rng, d, E, 2, false)
	b.Exec = newLocalExecutor([][]*Expert{makeExperts(rng, 0, E, d, 8)})
	stats := NewAccessStats(L, E)
	b.Stats = stats
	x := tensor.Randn(rng, 1, 10, d)
	if _, err := b.Forward(x); err != nil {
		t.Fatal(err)
	}
	if stats.Tokens[0] != 10 {
		t.Fatalf("tokens = %d, want 10", stats.Tokens[0])
	}
	var total int64
	for _, c := range stats.Counts[0] {
		total += c
	}
	if total != 20 { // 10 tokens × top-2
		t.Fatalf("routings = %d, want 20", total)
	}
	// Prob rows sum to 1, Freq rows sum to topK.
	var psum, fsum float64
	for _, p := range stats.Prob()[0] {
		psum += p
	}
	for _, f := range stats.Freq()[0] {
		fsum += f
	}
	if math.Abs(psum-1) > 1e-12 || math.Abs(fsum-2) > 1e-12 {
		t.Fatalf("prob sum %v (want 1), freq sum %v (want 2)", psum, fsum)
	}
}

func makeExperts(rng *rand.Rand, layer, n, d, hidden int) []*Expert {
	out := make([]*Expert, n)
	for e := range out {
		out[e] = NewExpert(ExpertID{layer, e}, rng, d, hidden, true)
	}
	return out
}

func TestStatsMergeAndEntropy(t *testing.T) {
	a := NewAccessStats(1, 4)
	a.RecordCounts(0, []int64{10, 0, 0, 0}, 5)
	a.RecordCounts(0, []int64{0, 10, 0, 0}, 5)
	if a.Tokens[0] != 10 || a.Counts[0][0] != 10 || a.Counts[0][1] != 10 {
		t.Fatal("RecordCounts must accumulate")
	}
	// Two equally-used experts.
	if p := a.Prob()[0]; math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("prob = %v, want [0.5 0.5 0 0]", p)
	}
	a.Reset()
	if a.Counts[0][0] != 0 || a.Counts[0][1] != 0 || a.Tokens[0] != 0 {
		t.Fatal("reset failed")
	}
}

func TestStatsMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAccessStats(1, 4).RecordCounts(1, []int64{1, 0, 0, 0}, 1)
}

// TestBlockGradcheckFrozenGate verifies the expert-path gradient of a MoE
// block (gate frozen, the fine-tuning regime).
func TestBlockGradcheckFrozenGate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, E, n = 4, 3, 3
	b := newBlock(0, rng, d, E, 2, false)
	experts := makeExperts(rng, 0, E, d, 5)
	b.Exec = newLocalExecutor([][]*Expert{experts})
	x := tensor.Randn(rng, 1, n, d)

	var params []*nn.Param
	for _, e := range experts {
		params = append(params, e.Params()...)
	}

	run := func() float64 {
		y, err := b.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := lossOf(y)
		return loss
	}
	nn.ZeroGrads(params)
	y, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	r := b.LastRouting()
	_, dy := lossOf(y)
	dx, err := b.Backward(dy)
	if err != nil {
		t.Fatal(err)
	}

	// Parameter gradients: routing does not depend on expert parameters,
	// so plain finite differences are valid.
	for _, p := range params {
		checkGrad(t, p.Name, p.Grad, p.Value, run, 1e-4)
	}

	// Input gradient: the frozen-gate backward treats routing weights as
	// constants (by design), so check dx against a reference that pins
	// the routing captured above and recombines expert outputs manually.
	routing := &Routing{Experts: r.Experts, Weights: r.Weights}
	pinned := func() float64 {
		yy := tensor.Zeros(n, d)
		for tk := 0; tk < n; tk++ {
			xt := tensor.New(append([]float64(nil), x.Row(tk)...), 1, d)
			for j, e := range routing.Experts[tk] {
				fe := experts[e].Forward(xt)
				for c := 0; c < d; c++ {
					yy.Row(tk)[c] += routing.Weights[tk][j] * fe.At(0, c)
				}
			}
		}
		loss, _ := lossOf(yy)
		return loss
	}
	checkGrad(t, "x(pinned-routing)", dx, x, pinned, 1e-4)
}

// TestBlockGradcheckTrainableGate verifies the full gradient including the
// gate path (the pre-training regime).
func TestBlockGradcheckTrainableGate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d, E, n = 4, 3, 3
	b := newBlock(0, rng, d, E, 2, true)
	experts := makeExperts(rng, 0, E, d, 5)
	b.Exec = newLocalExecutor([][]*Expert{experts})
	x := tensor.Randn(rng, 1, n, d)

	run := func() float64 {
		y, err := b.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := lossOf(y)
		return loss
	}
	nn.ZeroGrads(b.Gate.Params())
	y, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, dy := lossOf(y)
	if _, err := b.Backward(dy); err != nil {
		t.Fatal(err)
	}
	checkGrad(t, "gate.W", b.Gate.Proj.W.Grad, b.Gate.Proj.W.Value, run, 1e-3)
}

func lossOf(y *tensor.Tensor) (float64, *tensor.Tensor) {
	var l float64
	dy := tensor.Zeros(y.Shape()...)
	for i, v := range y.Data {
		c := math.Cos(float64(i))
		l += c * v
		dy.Data[i] = c
	}
	return l, dy
}

func checkGrad(t *testing.T, name string, analytic, value *tensor.Tensor, run func() float64, tol float64) {
	t.Helper()
	const h = 1e-6
	for i := range value.Data {
		orig := value.Data[i]
		value.Data[i] = orig + h
		lp := run()
		value.Data[i] = orig - h
		lm := run()
		value.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(analytic.Data[i]-num)/(math.Abs(num)+1) > tol {
			t.Fatalf("%s grad[%d]: analytic %.8g vs numeric %.8g", name, i, analytic.Data[i], num)
		}
	}
}

func TestModelForwardBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := Config{Vocab: 20, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 4, TopK: 2}
	m := NewModel(cfg, rng, true)
	grid := NewExpertGrid(cfg, rng, true)
	m.BindLocalExperts(grid)

	const batch, seq = 2, 5
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}
	logits, err := m.Forward(ids, batch, seq)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rows() != batch*seq || logits.Cols() != cfg.Vocab {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	loss, dlogits := nn.NewLoss().CrossEntropy(logits, targets)
	if loss <= 0 {
		t.Fatalf("loss must be positive at init, got %v", loss)
	}
	if err := m.Backward(dlogits); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, p := range nn.CollectTrainable(m.Params()) {
		for _, g := range p.Grad.Data {
			nonzero = nonzero || g != 0
		}
	}
	if !nonzero {
		t.Fatal("backbone gradient must be nonzero")
	}
}

func TestModelTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Vocab: 16, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	m := NewModel(cfg, rng, true)
	grid := NewExpertGrid(cfg, rng, true)
	exec := m.BindLocalExperts(grid)
	m.SetAuxLossCoef(0.01)

	params := append(m.Params(), exec.Params()...)
	opt := nn.NewAdamW(params, nn.AdamWConfig{LR: 5e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8})

	const batch, seq = 2, 6
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = (i * 3) % cfg.Vocab
		targets[i] = (i*3 + 1) % cfg.Vocab
	}
	var first, last float64
	for step := 0; step < 60; step++ {
		nn.ZeroGrads(params)
		logits, err := m.Forward(ids, batch, seq)
		if err != nil {
			t.Fatal(err)
		}
		loss, dl := nn.NewLoss().CrossEntropy(logits, targets)
		if step == 0 {
			first = loss
		}
		last = loss
		if err := m.Backward(dl); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if last >= first*0.7 {
		t.Fatalf("training failed to reduce loss: %.4f -> %.4f", first, last)
	}
}

func TestModelLoRAOnlyTrainsAdapters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Config{Vocab: 16, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	m := NewModel(cfg, rng, true)
	grid := NewExpertGrid(cfg, rng, true)
	m.BindLocalExperts(grid)
	m.Freeze()
	for _, row := range grid {
		for _, e := range row {
			for _, p := range e.Params() {
				p.Trainable = false
			}
		}
	}
	m.AttachLoRA(rng, 2, 4)
	for _, row := range grid {
		for _, e := range row {
			e.AttachLoRA(rng, 2, 4)
		}
	}
	// Gate must remain frozen and LoRA-free.
	for _, l := range m.Layers {
		if l.MoE.Gate.Proj.LoRA != nil {
			t.Fatal("gate must not receive LoRA")
		}
		if l.MoE.Gate.Proj.W.Trainable {
			t.Fatal("gate must stay frozen")
		}
	}
	trainable := nn.CollectTrainable(m.Params())
	for _, p := range trainable {
		if p.Value.Len() > 0 && p.Name != "" {
			// All trainable backbone params must be LoRA adapters.
			if !containsLoRA(p.Name) {
				t.Fatalf("unexpected trainable backbone param %q", p.Name)
			}
		}
	}
}

func containsLoRA(name string) bool {
	for i := 0; i+6 <= len(name); i++ {
		if name[i:i+6] == ".lora." {
			return true
		}
	}
	return false
}

func TestConfigValidate(t *testing.T) {
	good := TinyMistralConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.TopK = 7
	if bad.Validate() == nil {
		t.Fatal("TopK > Experts must fail")
	}
	bad = good
	bad.D = 50
	if bad.Validate() == nil {
		t.Fatal("D % Heads != 0 must fail")
	}
	bad = good
	bad.Vocab = 0
	if bad.Validate() == nil {
		t.Fatal("zero dimension must fail")
	}
}

func TestTinyMistralGeometryMatchesPaper(t *testing.T) {
	cfg := TinyMistralConfig()
	if cfg.Layers != 12 || cfg.Experts != 6 || cfg.TopK != 2 {
		t.Fatalf("TinyMistral geometry drifted from the paper: %+v", cfg)
	}
}

func TestSelectionOverlap(t *testing.T) {
	a := &Routing{Experts: [][]int{{1, 2}, {3, 4}, {0, 5}}}
	b := &Routing{Experts: [][]int{{2, 1}, {3, 4}, {0, 1}}}
	if got := SelectionOverlap(a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("overlap = %v, want 2/3", got)
	}
	if !testutil.Close(SelectionOverlap(&Routing{}, &Routing{}), 0) {
		t.Fatal("empty routings must give 0")
	}
}

func TestCDF(t *testing.T) {
	vals := []float64{0.1, 0.5, 0.9}
	got := CDF(vals, []float64{0.0, 0.5, 1.0})
	want := []float64{0, 2.0 / 3.0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF = %v, want %v", got, want)
		}
	}
}

// TestTheorem1Bound validates Theorem 1 empirically: for a gate with
// linear pre-softmax features, the change in softmax scores after one SGD
// step is bounded by μ·E·L²·P(1−P), up to the first-order approximation
// error the proof itself makes (we allow 10% slack and use a small μ).
func TestTheorem1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const E, dim = 6, 8
	const mu = 1e-3

	for trial := 0; trial < 50; trial++ {
		// Pre-softmax computation: y[k] = w · φ_k, with fixed random
		// feature vectors φ_k. The Lipschitz constant of y[k] w.r.t. w is
		// ‖φ_k‖; the SGD step uses a loss gradient of norm ≤ L as well.
		phi := make([][]float64, E)
		var lip float64
		for k := range phi {
			phi[k] = make([]float64, dim)
			var norm float64
			for j := range phi[k] {
				phi[k][j] = rng.NormFloat64()
				norm += phi[k][j] * phi[k][j]
			}
			if n := math.Sqrt(norm); n > lip {
				lip = n
			}
		}
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		logits := func(w []float64) []float64 {
			y := make([]float64, E)
			for k := range y {
				for j := range w {
					y[k] += w[j] * phi[k][j]
				}
			}
			return y
		}
		y0 := logits(w)

		// SGD step along a random descent direction with ‖g‖ ≤ lip.
		g := make([]float64, dim)
		var gn float64
		for j := range g {
			g[j] = rng.NormFloat64()
			gn += g[j] * g[j]
		}
		gn = math.Sqrt(gn)
		for j := range g {
			g[j] = g[j] / gn * lip // exactly norm L, the worst case
			w[j] -= mu * g[j]
		}
		y1 := logits(w)

		p0 := make([]float64, E)
		tensor.SoftmaxInto(p0, y0)
		deltas := softmaxDelta(y0, y1)
		for e := 0; e < E; e++ {
			bound := StabilityBound(mu, lip, E, p0[e])
			if deltas[e] > bound*1.1+1e-12 {
				t.Fatalf("trial %d expert %d: ΔP=%.3e exceeds bound %.3e (p=%.3f)", trial, e, deltas[e], bound, p0[e])
			}
		}
	}
}

// softmaxDelta returns per-component |softmax(y1)[e] − softmax(y0)[e]|,
// the ΔP_t(e) of Theorem 1.
func softmaxDelta(y0, y1 []float64) []float64 {
	p0 := make([]float64, len(y0))
	p1 := make([]float64, len(y1))
	tensor.SoftmaxInto(p0, y0)
	tensor.SoftmaxInto(p1, y1)
	d := make([]float64, len(y0))
	for i := range d {
		d[i] = math.Abs(p1[i] - p0[i])
	}
	return d
}

// TestTheorem1UncertaintyShape checks the qualitative claim: confident
// scores (p near 0 or 1) admit a much smaller bound than uncertain ones
// (p near 1/2).
func TestTheorem1UncertaintyShape(t *testing.T) {
	confident := StabilityBound(1e-3, 2, 6, 0.95)
	uncertain := StabilityBound(1e-3, 2, 6, 0.5)
	if confident >= uncertain/4 {
		t.Fatalf("bound at p=0.95 (%v) should be far below p=0.5 (%v)", confident, uncertain)
	}
	if !testutil.Close(StabilityBound(1e-3, 2, 6, 0), 0) || !testutil.Close(StabilityBound(1e-3, 2, 6, 1), 0) {
		t.Fatal("bound must vanish at p∈{0,1}")
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cfg := Config{Vocab: 16, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	m := NewModel(cfg, rng, false)
	m.BindLocalExperts(NewExpertGrid(cfg, rng, false))
	a, err := m.Generate([]int{1, 2, 3}, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate([]int{1, 2, 3}, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatalf("generated %d tokens, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation must be deterministic")
		}
		if a[i] < 0 || a[i] >= cfg.Vocab {
			t.Fatalf("token %d out of vocabulary", a[i])
		}
	}
}

func TestGenerateSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{Vocab: 16, D: 8, Heads: 2, Hidden: 12, Layers: 1, Experts: 2, TopK: 1}
	m := NewModel(cfg, rng, false)
	m.BindLocalExperts(NewExpertGrid(cfg, rng, false))
	out, err := m.Generate([]int{5}, 8, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d tokens", len(out))
	}
	if _, err := m.Generate(nil, 3, 0, nil); err == nil {
		t.Fatal("empty prompt must fail")
	}
}

// TestModelBackwardStopsAtLayer0Params: with the embedding table and
// layer 0's attention-norm gain frozen, Backward ends at layer 0's
// attention parameters. Every trainable gradient must equal that of the
// full walk, which a twin whose embedding table trains still takes.
func TestModelBackwardStopsAtLayer0Params(t *testing.T) {
	cfg := Config{Vocab: 16, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	build := func() *Model {
		rng := rand.New(rand.NewSource(9))
		m := NewModel(cfg, rng, true)
		grid := NewExpertGrid(cfg, rng, true)
		m.BindLocalExperts(grid)
		m.Freeze()
		m.AttachLoRA(rng, 2, 4)
		for _, l := range m.backboneLinears() {
			for i := range l.LoRA.B.Value.Data {
				l.LoRA.B.Value.Data[i] = 0.1 * rng.NormFloat64()
			}
		}
		return m
	}
	full, short := build(), build()
	full.Embed.Table.Trainable = true
	full.Embed.Table.Grad = tensor.Zeros(cfg.Vocab, cfg.D)
	const batch, seq = 2, 6
	ids, targets := make([]int, batch*seq), make([]int, batch*seq)
	for i := range ids {
		ids[i], targets[i] = (i*5)%cfg.Vocab, (i*5+3)%cfg.Vocab
	}
	for _, m := range []*Model{full, short} {
		logits, err := m.Forward(ids, batch, seq)
		if err != nil {
			t.Fatal(err)
		}
		_, dl := nn.NewLoss().CrossEntropy(logits, targets)
		if err := m.Backward(dl); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for i, p := range short.Params() {
		if !p.Trainable {
			continue
		}
		checked++
		if !testutil.BitEqualSlices(full.Params()[i].Grad.Data, p.Grad.Data) {
			t.Fatalf("%s gradient differs from the full walk's", p.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no trainable parameter compared")
	}
}
