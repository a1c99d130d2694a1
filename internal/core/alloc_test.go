// Allocation counts are exact only without the race detector, whose
// instrumentation allocates on its own.
//go:build !race

package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// TestStepAllocBound: a steady-state fine-tuning step at stepbench's
// compute geometry (d=128, h=352, 2 layers × 8 experts, top-2, batch
// 4×32, LoRA r=8) allocates at most 256 KB and 43 objects on the local
// executor, and at most 320 KB and 561 objects brokered to two workers
// over loopback TCP, fp64 — master and workers both, since they share the
// process. Layer scratch keeps its capacity as routed batches change
// size, AdamW binds its jobs once, a worker returns the frames it decodes
// to the codec pools, the gate allocates a fixed handful of objects per
// forward, the block dispatches through step-persistent slices and the
// loss reuses its gradient. The bytes move by a few tens of KB from run
// to run with the arena pools' per-processor hits; the objects do not.
func TestStepAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 140 fine-tuning steps")
	}
	cfg := moe.Config{Vocab: data.VocabSize, D: 128, Heads: 4, Hidden: 352, Layers: 2, Experts: 8, TopK: 2}
	const batch, seqLen = 4, 32
	setup := func() (*moe.Model, [][]*moe.Expert, *data.Corpus) {
		rng := rand.New(rand.NewSource(1))
		model := moe.NewModel(cfg, rng, true)
		grid := moe.NewExpertGrid(cfg, rng, true)
		trainer.PrepareForFinetune(model, grid, trainer.LoRAConfig{Rank: 8, Alpha: 16, Seed: 2})
		return model, grid, data.WikiText(20000)
	}
	t.Run("local", func(t *testing.T) {
		model, grid, corpus := setup()
		ft := trainer.NewLocalFinetuner(model, model.BindLocalExperts(grid), data.NewBatcher(corpus, batch, seqLen, 3))
		stepAllocs(t, ft, 256<<10, 43)
	})
	t.Run("tcp", func(t *testing.T) {
		model, grid, corpus := setup()
		model.BindLocalExperts(grid)
		topo := cluster.Uniform(2, 2, 8, 18.3*cluster.GB, 1.17*cluster.GB)
		stats, err := trainer.Profile(model, corpus, 4, batch, seqLen, 4)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Attach(model, tcpWorkers(t, topo.NumWorkers())(), Options{
			Topo: topo, Stats: stats, Strategy: placement.Sequential{}, WireEncoding: wire.EncFP64,
			LoRA: trainer.LoRAConfig{Rank: 8, Alpha: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Exec.Distribute(grid, sys.Spec); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Exec.Shutdown() }()
		backbone := nn.CollectTrainable(model.Params())
		stepAllocs(t, &trainer.Finetuner{
			Model: model, Backbone: backbone, Opt: nn.NewAdamW(backbone, nn.PaperAdamWConfig()),
			Batcher:    data.NewBatcher(corpus, batch, seqLen, 3),
			ExpertZero: sys.Exec.ZeroGrads, ExpertStep: sys.Exec.Step,
		}, 320<<10, 561)
	})
}

// stepAllocs drives ft through 40 warm-up steps, then bounds the bytes and
// objects the whole process allocates per step over the 30 steps after
// them.
// Layer scratch grows to each new largest routed batch, so the first
// steps allocate more, and fewer the longer a run goes.
func stepAllocs(t *testing.T, ft *trainer.Finetuner, bound, objects uint64) {
	t.Helper()
	const warm, steps = 40, 30
	var before, after runtime.MemStats
	for i := 0; i < warm+steps; i++ {
		if i == warm {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		if _, err := ft.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := (after.TotalAlloc-before.TotalAlloc)/steps, (after.Mallocs-before.Mallocs)/steps
	t.Logf("%d B and %d objects per step; %d GC cycles in %d steps",
		bytes, mallocs, after.NumGC-before.NumGC, steps)
	if bytes > bound {
		t.Errorf("a steady-state step allocates %d KB, want at most %d KB", bytes>>10, bound>>10)
	}
	if mallocs > objects {
		t.Errorf("a steady-state step allocates %d objects, want at most %d", mallocs, objects)
	}
}
