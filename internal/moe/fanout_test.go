package moe_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

// finetuneLocal runs steps of LoRA fine-tuning through a LocalExecutor at
// the given fan-out degree and returns the loss series followed, per
// step, by every trainable expert gradient.
func finetuneLocal(t *testing.T, d, steps, degree int) []float64 {
	t.Helper()
	tensor.SetParallelism(degree)
	cfg := moe.Config{Vocab: data.VocabSize, D: d, Heads: 4, Hidden: 11 * d / 4, Layers: 2, Experts: 8, TopK: 2}
	rng := rand.New(rand.NewSource(1))
	model := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	trainer.PrepareForFinetune(model, grid, trainer.LoRAConfig{Rank: 8, Alpha: 16, Seed: 2})
	exec := model.BindLocalExperts(grid)
	ft := trainer.NewLocalFinetuner(model, exec, data.NewBatcher(data.WikiText(20000), 4, 32, 3))
	var out []float64
	for s := 0; s < steps; s++ {
		loss, err := ft.Step()
		if err != nil {
			t.Fatalf("degree %d step %d: %v", degree, s, err)
		}
		out = append(out, loss)
		for _, p := range nn.CollectTrainable(exec.Params()) {
			out = append(out, p.Grad.Data...)
		}
	}
	return out
}

// TestLocalExecutorFanoutBitIdentical: experts share no state and the
// block combines in expert-index order, so running a layer's experts side
// by side changes no bit of the loss series or of any LoRA gradient, at
// degrees below, at and above the expert count's divisors.
func TestLocalExecutorFanoutBitIdentical(t *testing.T) {
	t.Cleanup(func() { tensor.SetParallelism(0) })
	for _, d := range []int{32, 128} {
		want := finetuneLocal(t, d, 8, 1)
		for _, degree := range []int{2, 3, 8} {
			if got := finetuneLocal(t, d, 8, degree); !testutil.BitEqualSlices(want, got) {
				t.Errorf("d=%d: losses or expert gradients at degree %d differ from degree 1", d, degree)
			}
		}
	}
}

// TestLocalExecutorExpertPanicReachesCaller: a panic inside one expert's
// Forward — here nn's shape precondition on a batch one feature too wide
// — surfaces on the goroutine that called ForwardExperts, whichever
// goroutine of the fan-out ran that expert.
func TestLocalExecutorExpertPanicReachesCaller(t *testing.T) {
	t.Cleanup(func() { tensor.SetParallelism(0) })
	const d, experts = 8, 8
	cfg := moe.Config{Vocab: data.VocabSize, D: d, Heads: 2, Hidden: 16, Layers: 1, Experts: experts, TopK: 2}
	exec := moe.NewModel(cfg, rand.New(rand.NewSource(4)), false).BindLocalExperts(moe.NewExpertGrid(cfg, rand.New(rand.NewSource(4)), false))
	for _, degree := range []int{1, 2, 8} {
		tensor.SetParallelism(degree)
		batches := make(map[int]*tensor.Tensor, experts)
		for e := 0; e < experts; e++ {
			batches[e] = tensor.Full(0.1, 2+e, d)
		}
		batches[5] = tensor.Full(0.1, 3, d+1)
		got := func() (r any) {
			defer func() { r = recover() }()
			_, _ = exec.ForwardExperts(0, batches)
			return nil
		}()
		if got == nil || !strings.Contains(fmt.Sprint(got), "L0/E5.w1 expects 8 input features") {
			t.Fatalf("degree %d: recovered %v, want expert 5's shape-precondition panic", degree, got)
		}
	}
}
