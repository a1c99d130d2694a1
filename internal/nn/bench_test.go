package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", rng, 64, 64, true, true)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.Randn(rng, 1, 128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	}
}

func BenchmarkLoRALinearForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", rng, 64, 64, false, true)
	l.AttachLoRA(rng, 8, 16)
	x := tensor.Randn(rng, 1, 128, 64)
	dy := tensor.Randn(rng, 1, 128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	}
}

func BenchmarkAttentionForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := NewAttention("a", rng, 32, 4, true)
	x := tensor.Randn(rng, 1, 2*48, 32)
	dy := tensor.Randn(rng, 1, 2*48, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Forward(x, 2, 48)
		_ = a.Backward(dy)
	}
}

// BenchmarkAttentionLoRA times one backbone attention layer of a
// fine-tuning step at stepbench's compute geometry — d=128, 4 heads, batch
// 4×32, frozen projections with rank-8 adapters — forward and backward
// apart, on one core and on two.
func BenchmarkAttentionLoRA(b *testing.B) {
	const d, heads, batch, seqLen = 128, 4, 4, 32
	rng := rand.New(rand.NewSource(3))
	a := NewAttention("a", rng, d, heads, false)
	for _, l := range a.Linears() {
		l.AttachLoRA(rng, 8, 16)
		l.LoRA.B.Value = tensor.Randn(rng, 0.1, 8, d)
	}
	x, dy := tensor.Randn(rng, 1, batch*seqLen, d), tensor.Randn(rng, 1, batch*seqLen, d)
	for _, cores := range []int{1, 2} {
		for _, pass := range []string{"forward", "backward"} {
			b.Run(fmt.Sprintf("%s/cores=%d", pass, cores), func(b *testing.B) {
				old := tensor.Parallelism()
				tensor.SetParallelism(cores)
				b.Cleanup(func() { tensor.SetParallelism(old) })
				a.Forward(x, batch, seqLen)
				a.Backward(dy)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if pass == "backward" {
						b.StopTimer()
						a.Forward(x, batch, seqLen)
						b.StartTimer()
						a.Backward(dy)
						continue
					}
					a.Forward(x, batch, seqLen)
					b.StopTimer()
					a.Backward(dy)
					b.StartTimer()
				}
			})
		}
	}
}

func BenchmarkSwiGLUForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s := NewSwiGLU("s", rng, 32, 64, true)
	x := tensor.Randn(rng, 1, 128, 32)
	dy := tensor.Randn(rng, 1, 128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Forward(x)
		_ = s.Backward(dy)
	}
}

func BenchmarkAdamWStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := newParam("w", tensor.Randn(rng, 1, 256, 256), true)
	for i := range p.Grad.Data {
		p.Grad.Data[i] = rng.NormFloat64()
	}
	opt := NewAdamW([]*Param{p}, PaperAdamWConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step()
	}
}

// Paper geometry: TinyMistral d_model=1024, FFN hidden 2816, per-step
// token batch 128. Serial pins the engine to one shard; Parallel lets it
// use every core. The acceptance comparison (≥2× on ≥4 cores) divides
// the two ns/op numbers.
const (
	benchBatch  = 128
	benchD      = 1024
	benchHidden = 2816
)

func benchLinearPaper(b *testing.B, degree int) {
	old := tensor.Parallelism()
	tensor.SetParallelism(degree)
	b.Cleanup(func() { tensor.SetParallelism(old) })
	rng := rand.New(rand.NewSource(7))
	l := NewLinear("l", rng, benchD, benchD, true, true)
	x := tensor.Randn(rng, 1, benchBatch, benchD)
	dy := tensor.Randn(rng, 1, benchBatch, benchD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(x)
		_ = l.Backward(dy)
	}
}

func BenchmarkLinearPaperGeometrySerial(b *testing.B)   { benchLinearPaper(b, 1) }
func BenchmarkLinearPaperGeometryParallel(b *testing.B) { benchLinearPaper(b, 0) }

func benchSwiGLUPaper(b *testing.B, degree int) {
	old := tensor.Parallelism()
	tensor.SetParallelism(degree)
	b.Cleanup(func() { tensor.SetParallelism(old) })
	rng := rand.New(rand.NewSource(8))
	s := NewSwiGLU("s", rng, benchD, benchHidden, true)
	x := tensor.Randn(rng, 1, benchBatch, benchD)
	dy := tensor.Randn(rng, 1, benchBatch, benchD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Forward(x)
		_ = s.Backward(dy)
	}
}

func BenchmarkSwiGLUPaperGeometrySerial(b *testing.B)   { benchSwiGLUPaper(b, 1) }
func BenchmarkSwiGLUPaperGeometryParallel(b *testing.B) { benchSwiGLUPaper(b, 0) }

// BenchmarkSiLUGate is SwiGLU's gate over one expert's activations (a
// 32-token batch at h=352), serial: σ(h1) and silu(h1)·h3 per element.
func BenchmarkSiLUGate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h1, h3 := tensor.Randn(rng, 3, 32, 352), tensor.Randn(rng, 1, 32, 352)
	u, sg := tensor.Zeros(32, 352), tensor.Zeros(32, 352)
	n := len(u.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		siluGateRange(u.Data, sg.Data, h1.Data, h3.Data, 0, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
}

// BenchmarkCrossEntropy times the step's loss, Loss.CrossEntropy into its
// kept buffers, over stepbench's 128 tokens × 96-token vocabulary, on one
// core and on two.
func BenchmarkCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	logits := tensor.Randn(rng, 1, 128, 96)
	targets := make([]int, 128)
	for i := range targets {
		targets[i] = rng.Intn(96)
	}
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			old := tensor.Parallelism()
			tensor.SetParallelism(cores)
			b.Cleanup(func() { tensor.SetParallelism(old) })
			l := NewLoss()
			l.CrossEntropy(logits, targets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = l.CrossEntropy(logits, targets)
			}
		})
	}
}

// linearShapes are the Linear geometries of the benchmark workloads,
// rows×in→out: the expert projection at the mean routed batch, the shaped
// workloads' thin experts (up and down), and the backbone's projections
// at 128 tokens.
var linearShapes = []struct{ rows, in, out int }{
	{32, 128, 352},
	{32, 256, 64},
	{32, 64, 256},
	{128, 128, 128},
	{128, 256, 256},
}

// BenchmarkLinearAdapter times one Linear forward+backward on one core at
// each workload geometry, frozen-only and with the rank-8 (α=16) adapter
// the fine-tuning attaches; their difference is the adapter's cost.
func BenchmarkLinearAdapter(b *testing.B) {
	for _, s := range linearShapes {
		for _, lora := range []bool{false, true} {
			name := fmt.Sprintf("%dx%dx%d/frozen", s.rows, s.in, s.out)
			if lora {
				name = fmt.Sprintf("%dx%dx%d/lora", s.rows, s.in, s.out)
			}
			b.Run(name, func(b *testing.B) {
				old := tensor.Parallelism()
				tensor.SetParallelism(1)
				b.Cleanup(func() { tensor.SetParallelism(old) })
				rng := rand.New(rand.NewSource(10))
				l := NewLinear("l", rng, s.in, s.out, false, false)
				if lora {
					l.AttachLoRA(rng, 8, 16)
					l.LoRA.B.Value = tensor.Randn(rng, 0.1, 8, s.out)
				}
				x := tensor.Randn(rng, 1, s.rows, s.in)
				dy := tensor.Randn(rng, 1, s.rows, s.out)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = l.Forward(x)
					_ = l.Backward(dy)
				}
			})
		}
	}
}
