package moe

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkModelForward measures a TinyMistral-geometry forward pass.
func BenchmarkModelForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := TinyMistralConfig()
	m := NewModel(cfg, rng, false)
	m.BindLocalExperts(NewExpertGrid(cfg, rng, false))
	ids := make([]int, 2*32)
	for i := range ids {
		ids[i] = i % cfg.Vocab
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(ids, 2, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelTrainStep measures a full training step (fwd+bwd+opt).
func BenchmarkModelTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cfg := TinyMistralConfig()
	m := NewModel(cfg, rng, true)
	exec := m.BindLocalExperts(NewExpertGrid(cfg, rng, true))
	params := append(m.Params(), exec.Params()...)
	opt := nn.NewAdamW(params, nn.PaperAdamWConfig())
	ids := make([]int, 2*32)
	targets := make([]int, 2*32)
	for i := range ids {
		ids[i] = i % cfg.Vocab
		targets[i] = (i + 1) % cfg.Vocab
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(params)
		logits, err := m.Forward(ids, 2, 32)
		if err != nil {
			b.Fatal(err)
		}
		_, dl := nn.NewLoss().CrossEntropy(logits, targets)
		if err := m.Backward(dl); err != nil {
			b.Fatal(err)
		}
		opt.Step()
	}
}

// BenchmarkGateRouting isolates the router.
func BenchmarkGateRouting(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := newGate("g", rng, 32, 8, 2, false)
	x := tensor.Randn(rng, 1, 256, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Forward(x)
	}
}

// BenchmarkMoEBlockForward measures one MoE block's forward pass — gate,
// dispatch and eight local experts — over 128 tokens.
func BenchmarkMoEBlockForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const d, experts, tokens = 32, 8, 128
	blk := newBlock(0, rng, d, experts, 2, false)
	grid := [][]*Expert{make([]*Expert, experts)}
	for e := 0; e < experts; e++ {
		grid[0][e] = NewExpert(ExpertID{Layer: 0, Expert: e}, rng, d, 2*d, false)
	}
	blk.Exec = newLocalExecutor(grid)
	x := tensor.Randn(rng, 1, tokens, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpertsCold times one layer's experts the way a step meets
// them, on one core: 16 LoRA experts at stepbench's compute geometry
// (d=128, h=352, r=8, frozen weights packed during warm-up), each
// forward over a routed batch of the sub-benchmark's rows, then each
// backward, so every expert's weights and activations come back cold from
// the other fifteen's traffic. One op is the layer's 16 forward and 16
// backward passes; GFLOP/s counts their dense base-weight products (three
// projections, forward and input gradient), not the rank-8 adapters.
func BenchmarkExpertsCold(b *testing.B) {
	const d, h, experts = 128, 352, 16
	for _, rows := range []int{1, 11, 35, 59, 87} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			old := tensor.Parallelism()
			tensor.SetParallelism(1)
			b.Cleanup(func() { tensor.SetParallelism(old) })
			rng := rand.New(rand.NewSource(1))
			es := make([]*Expert, experts)
			xs, dys := make([]*tensor.Tensor, experts), make([]*tensor.Tensor, experts)
			for i := range es {
				es[i] = NewExpert(ExpertID{Expert: i}, rng, d, h, false)
				es[i].AttachLoRA(rng, 8, 16)
				xs[i], dys[i] = tensor.Randn(rng, 1, rows, d), tensor.Randn(rng, 1, rows, d)
			}
			layer := func() {
				for i, e := range es {
					e.Forward(xs[i])
				}
				for i, e := range es {
					e.Backward(dys[i])
				}
			}
			layer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer()
			}
			flops := experts * 6 * 2 * float64(rows) * d * h
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkBlockRouting times the block's own passes around its expert
// calls at stepbench's compute geometry (d=128, 128 tokens, 8 experts,
// top-2), on one core and on two: the gate, the dispatch plan and copy,
// the combine, the backward's scatter and gather, and "block", one whole
// Forward and Backward. The experts are identities (an output is its
// batch; an input gradient its output gradient), so no expert time is in
// any pass.
func BenchmarkBlockRouting(b *testing.B) {
	const d, experts, tokens, k = 128, 8, 128, 2
	rng := rand.New(rand.NewSource(1))
	blk := newBlock(0, rng, d, experts, k, false)
	blk.Exec = identityExec{}
	x, dy := tensor.Randn(rng, 1, tokens, d), tensor.Randn(rng, 1, tokens, d)
	for _, cores := range []int{1, 2} {
		passes := []struct {
			name string
			run  func()
		}{
			{"gate", func() { blk.Gate.Forward(x) }},
			{"dispatch", func() { blk.planDispatch(blk.routing); blk.dispatch(x) }},
			{"combine", func() { copy(blk.res, blk.batch); blk.combine() }},
			{"scatter", func() { blk.scatter(dy) }},
			{"gather", func() { copy(blk.res, blk.batch); blk.gather() }},
			{"block", func() {
				if _, err := blk.Forward(x); err != nil {
					b.Fatal(err)
				}
				if _, err := blk.Backward(dy); err != nil {
					b.Fatal(err)
				}
			}},
		}
		for _, p := range passes {
			b.Run(fmt.Sprintf("%s/cores=%d", p.name, cores), func(b *testing.B) {
				old := tensor.Parallelism()
				tensor.SetParallelism(cores)
				b.Cleanup(func() { tensor.SetParallelism(old) })
				// One forward sizes every buffer and leaves the routing,
				// the batches and the output gradients in place.
				if _, err := blk.Forward(x); err != nil {
					b.Fatal(err)
				}
				tensor.Ensure(&blk.dx, tokens, d)
				for e := range blk.grad {
					blk.grad[e] = blk.batch[e]
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.run()
				}
			})
		}
	}
}

// identityExec returns every batch as its own result.
type identityExec struct{}

func (identityExec) ForwardExperts(_ int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return batches, nil
}

func (identityExec) BackwardExperts(_ int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return grads, nil
}
