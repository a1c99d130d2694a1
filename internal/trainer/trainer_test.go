package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/testutil"
)

// tinyCfg is a fast test geometry (full TinyMistral runs live in the
// bench harness).
func tinyCfg() moe.Config {
	return moe.Config{Vocab: data.VocabSize, D: 16, Heads: 2, Hidden: 24, Layers: 3, Experts: 4, TopK: 2}
}

func fastPretrain() PretrainConfig {
	return PretrainConfig{Steps: 40, Batch: 2, SeqLen: 24, LR: 3e-3, AuxCoef: 2e-2, Seed: 20}
}

func TestPretrainReducesLoss(t *testing.T) {
	m, grid, err := BuildPretrained(tinyCfg(), 6000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(grid) != 3 {
		t.Fatal("checkpoint malformed")
	}
	// Rebuild to get the loss series.
	rng := rand.New(rand.NewSource(20))
	m2 := moe.NewModel(tinyCfg(), rng, true)
	grid2 := moe.NewExpertGrid(tinyCfg(), rng, true)
	exec := m2.BindLocalExperts(grid2)
	losses, err := pretrain(m2, exec, data.Pretrain(6000), fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	first, last := losses.Values[0], losses.Values[losses.Len()-1]
	if last >= first*0.9 {
		t.Fatalf("pretraining failed to reduce loss: %.3f -> %.3f", first, last)
	}
}

func TestBuildPretrainedDeterministic(t *testing.T) {
	m1, _, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if !testutil.BitEqual(p1[i].Value.Data[j], p2[i].Value.Data[j]) {
				t.Fatal("checkpoints must be bit-identical for a fixed seed")
			}
		}
	}
}

func TestProfileProducesValidMatrix(t *testing.T) {
	m, _, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Profile(m, data.WikiText(4000), 5, 2, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	// batches × batch × seq × topK × layers routings in total.
	var routings int64
	for _, row := range stats.Counts {
		for _, c := range row {
			routings += c
		}
	}
	if want := int64(5 * 2 * 24 * 2 * 3); routings != want {
		t.Fatalf("routings = %d, want %d", routings, want)
	}
	for l, row := range stats.Prob() {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("P row %d sums to %v", l, sum)
		}
	}
	// Stats collection must be detached afterwards.
	for _, l := range m.Layers {
		if l.MoE.Stats != nil {
			t.Fatal("Profile must detach stats collection")
		}
	}
}

func TestPrepareForFinetuneFreezesCorrectly(t *testing.T) {
	m, grid, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	PrepareForFinetune(m, grid, LoRAConfig{Rank: 2, Alpha: 4, Seed: 5})
	// Gate frozen and adapter-free.
	for _, l := range m.Layers {
		if l.MoE.Gate.Proj.LoRA != nil || l.MoE.Gate.Proj.W.Trainable {
			t.Fatal("gate must stay frozen without LoRA")
		}
	}
	// Trainable set is exactly the adapters.
	for _, p := range nn.CollectTrainable(m.Params()) {
		if !hasLoRAName(p.Name) {
			t.Fatalf("non-adapter trainable param %q", p.Name)
		}
	}
	for _, row := range grid {
		for _, e := range row {
			found := false
			for _, p := range nn.CollectTrainable(e.Params()) {
				if !hasLoRAName(p.Name) {
					t.Fatalf("non-adapter trainable expert param %q", p.Name)
				}
				found = true
			}
			if !found {
				t.Fatal("expert has no trainable adapters")
			}
		}
	}
}

func hasLoRAName(name string) bool {
	for i := 0; i+6 <= len(name); i++ {
		if name[i:i+6] == ".lora." {
			return true
		}
	}
	return false
}

func TestFinetunerRunsAndRecords(t *testing.T) {
	m, grid, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	PrepareForFinetune(m, grid, LoRAConfig{Rank: 2, Alpha: 4, Seed: 5})
	exec := m.Layers[0].MoE.Exec.(*moe.LocalExecutor)
	b := data.NewBatcher(data.Shakespeare(4000), 2, 24, 9)
	ft := NewLocalFinetuner(m, exec, b)

	var hookCalls int
	if err := ft.Run(6, func(step int, loss float64) {
		hookCalls++
		if loss <= 0 {
			t.Fatalf("step %d: non-positive loss", step)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 6 || ft.Losses.Len() != 6 {
		t.Fatalf("hooks %d losses %d", hookCalls, ft.Losses.Len())
	}
}

// TestFinetuneOnlyMovesAdapters: after fine-tuning, the frozen base
// weights must be bit-identical to the checkpoint while adapters changed.
func TestFinetuneOnlyMovesAdapters(t *testing.T) {
	m, grid, err := BuildPretrained(tinyCfg(), 4000, fastPretrain())
	if err != nil {
		t.Fatal(err)
	}
	PrepareForFinetune(m, grid, LoRAConfig{Rank: 2, Alpha: 4, Seed: 5})

	snapshot := map[string][]float64{}
	for _, p := range m.Params() {
		if !p.Trainable {
			snapshot[p.Name] = append([]float64(nil), p.Value.Data...)
		}
	}
	exec := m.Layers[0].MoE.Exec.(*moe.LocalExecutor)
	var loraBefore []float64
	for _, p := range nn.CollectTrainable(exec.Params()) {
		loraBefore = append(loraBefore, p.Value.Data...)
	}

	b := data.NewBatcher(data.Shakespeare(4000), 2, 24, 9)
	ft := NewLocalFinetuner(m, exec, b)
	if err := ft.Run(5, nil); err != nil {
		t.Fatal(err)
	}

	for _, p := range m.Params() {
		if want, ok := snapshot[p.Name]; ok {
			for i := range want {
				if !testutil.BitEqual(p.Value.Data[i], want[i]) {
					t.Fatalf("frozen param %q moved during fine-tuning", p.Name)
				}
			}
		}
	}
	var loraAfter []float64
	for _, p := range nn.CollectTrainable(exec.Params()) {
		loraAfter = append(loraAfter, p.Value.Data...)
	}
	changed := false
	for i := range loraBefore {
		if !testutil.BitEqual(loraBefore[i], loraAfter[i]) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("expert adapters did not move — fine-tuning had no effect")
	}
}

func TestPaperLoRAConfig(t *testing.T) {
	l := PaperLoRA()
	if l.Rank != 8 || !testutil.Close(l.Alpha, 16) {
		t.Fatalf("paper LoRA drifted: %+v", l)
	}
}

func TestFixedBatcher(t *testing.T) {
	ids := []int{1, 2, 3, 4}
	targets := []int{2, 3, 4, 5}
	fb := NewFixedBatcher(ids, targets, 2, 2)
	for i := 0; i < 3; i++ {
		gi, gt := fb.Next()
		for j := range ids {
			if gi[j] != ids[j] || gt[j] != targets[j] {
				t.Fatal("fixed batcher must repeat the same batch")
			}
		}
	}
	if b, s := fb.Shape(); b != 2 || s != 2 {
		t.Fatalf("shape = %d,%d", b, s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewFixedBatcher(ids, targets, 3, 2)
}
