package checkpoint

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

func buildModel(t *testing.T) (*moe.Model, [][]*moe.Expert, moe.Config) {
	t.Helper()
	cfg := moe.Config{Vocab: 20, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	rng := rand.New(rand.NewSource(42))
	m := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	m.BindLocalExperts(grid)
	return m, grid, cfg
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, grid, cfg := buildModel(t)
	raw, err := Encode(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	m2, grid2, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != cfg {
		t.Fatalf("config mismatch: %+v vs %+v", m2.Cfg, cfg)
	}
	// Bit-identical parameters.
	ps1 := allParams(m, grid)
	ps2 := allParams(m2, grid2)
	if len(ps1) != len(ps2) {
		t.Fatalf("param counts differ: %d vs %d", len(ps1), len(ps2))
	}
	for i := range ps1 {
		if ps1[i].Name != ps2[i].Name {
			t.Fatalf("param %d name %q vs %q", i, ps1[i].Name, ps2[i].Name)
		}
		for j := range ps1[i].Value.Data {
			if !testutil.BitEqual(ps1[i].Value.Data[j], ps2[i].Value.Data[j]) {
				t.Fatalf("param %q[%d] differs", ps1[i].Name, j)
			}
		}
	}
	// Same forward output.
	m2.BindLocalExperts(grid2)
	ids := []int{1, 2, 3, 4, 5, 6}
	y1, err := m.Forward(ids, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := m2.Forward(ids, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data {
		if !testutil.BitEqual(y1.Data[i], y2.Data[i]) {
			t.Fatal("loaded model diverges from original")
		}
	}
}

func TestSaveRejectsLoRAState(t *testing.T) {
	m, grid, _ := buildModel(t)
	trainer.PrepareForFinetune(m, grid, trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 1})
	if _, err := Encode(m, grid); err == nil {
		t.Fatal("saving a LoRA-prepared model must fail")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	m, grid, _ := buildModel(t)
	raw, err := Encode(m, grid)
	if err != nil {
		t.Fatal(err)
	}

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Truncation.
	if _, _, err := Decode(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated file must fail")
	}
	// Corrupted config (Heads=0).
	bad2 := append([]byte(nil), raw...)
	copy(bad2[8+8:], []byte{0, 0, 0, 0})
	if _, _, err := Decode(bad2); err == nil {
		t.Fatal("invalid config must fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, grid, _ := buildModel(t)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := SaveFile(path, m, grid); err != nil {
		t.Fatal(err)
	}
	m2, grid2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == nil || len(grid2) != len(grid) {
		t.Fatal("load returned wrong structures")
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestCheckpointResumesTraining: a loaded checkpoint fine-tunes exactly
// like the original object graph.
func TestCheckpointResumesTraining(t *testing.T) {
	cfg := moe.Config{Vocab: data.VocabSize, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 3, TopK: 2}
	m, grid, err := trainer.BuildPretrained(cfg, 3000,
		trainer.PretrainConfig{Steps: 10, Batch: 2, SeqLen: 12, LR: 3e-3, AuxCoef: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	m2, grid2, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}

	run := func(model *moe.Model, g [][]*moe.Expert) []float64 {
		trainer.PrepareForFinetune(model, g, trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 8})
		exec := model.Layers[0].MoE.Exec.(*moe.LocalExecutor)
		ft := trainer.NewLocalFinetuner(model, exec, data.NewBatcher(data.Shakespeare(3000), 2, 12, 9))
		if err := ft.Run(4, nil); err != nil {
			t.Fatal(err)
		}
		return ft.Losses.Values
	}
	m.BindLocalExperts(grid)
	m2.BindLocalExperts(grid2)
	l1 := run(m, grid)
	l2 := run(m2, grid2)
	for i := range l1 {
		if !testutil.BitEqual(l1[i], l2[i]) {
			t.Fatalf("step %d: loaded checkpoint diverges (%v vs %v)", i, l2[i], l1[i])
		}
	}
}
