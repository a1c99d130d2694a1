package nn

import (
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
	p := NewParam("w", tensor.Randn(rng, 1, 256, 256), true)
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

func BenchmarkCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	logits := tensor.Randn(rng, 1, 256, 96)
	targets := make([]int, 256)
	for i := range targets {
		targets[i] = rng.Intn(96)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = CrossEntropy(logits, targets)
	}
}
