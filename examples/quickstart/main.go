// Quickstart: the complete VELA workflow in one file.
//
//  1. Manufacture a small pre-trained MoE checkpoint (12 blocks × 6
//     experts, top-2 — the TinyMistral geometry of the paper's
//     measurement study, narrow widths for CPU speed).
//  2. Freeze it and inject LoRA adapters (all linears except the gate).
//  3. Profile expert locality on the fine-tuning corpus.
//  4. Solve the locality-aware placement for a 3-node cluster.
//  5. Deploy: experts detach onto Expert Manager workers behind the
//     broker; the backbone stays on this "master" process.
//  6. Fine-tune, then report the byte-accurate traffic statistics.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/trainer"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Pre-trained checkpoint (deterministic; ~20 s on one CPU core).
	cfg := moe.Config{Vocab: data.VocabSize, D: 24, Heads: 2, Hidden: 48, Layers: 6, Experts: 6, TopK: 2}
	pre := trainer.DefaultPretrain()
	pre.Steps = 100
	fmt.Println("pre-training checkpoint...")
	model, grid, err := trainer.BuildPretrained(cfg, 16000, pre)
	if err != nil {
		return err
	}

	// 2. LoRA injection, gate frozen (§V-A).
	lora := trainer.LoRAConfig{Rank: 4, Alpha: 8, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)

	// 3. Measure the access-probability matrix P on the target corpus.
	corpus := data.Shakespeare(16000)
	stats, err := trainer.Profile(model, corpus, 10, 2, 32, 31)
	if err != nil {
		return err
	}
	fmt.Println("expert access frequency, block 1:", fmtRow(stats.Freq()[0]))

	// 4 + 5. Locality-aware placement on a 3-node topology (capacity 8
	// per device forces spreading), then deploy through the broker.
	topo := cluster.Uniform(6, 2, 8, 18.3*cluster.GB, 1.17*cluster.GB)
	handle := obs.NewHandle(obs.Config{
		Workers: topo.NumWorkers(), Layers: cfg.Layers, Experts: cfg.Experts,
		// Large enough to retain the whole run's exchange lifecycle for the
		// timeline export below (the default 4096 would keep only the tail).
		TraceCapacity: 1 << 17,
	})
	sys, err := core.Deploy(model, grid, core.Options{
		Topo:            topo,
		Stats:           stats,
		RoutingsPerStep: float64(2 * 32 * cfg.TopK),
		LoRA:            lora,
		Obs:             handle,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("experts per worker:", sys.Exec.Assignment().Loads(topo.NumWorkers()))

	// 6. Fine-tune through the Expert Broker.
	ft, err := sys.Finetuner(data.NewBatcher(corpus, 2, 32, 7))
	if err != nil {
		return err
	}
	if err := ft.Run(20, func(step int, loss float64) {
		if (step+1)%5 == 0 {
			fmt.Printf("  step %2d  loss %.4f\n", step+1, loss)
		}
	}); err != nil {
		return err
	}

	// The exit report: every runtime counter (traffic with its cross-node
	// share first among them), where each step's time went, and how far
	// the live routing distribution has drifted from the placement-time P
	// (Theorem 1 predicts: not far).
	if err := obs.WriteReport(os.Stdout, sys.MetricsSource()); err != nil {
		return err
	}

	// Cross-process timeline: the in-process deployment shares one trace
	// ring (and one clock), so master and worker events assemble without a
	// clock-offset rebase. The export loads in https://ui.perfetto.dev;
	// the critical path names each step's bounding worker and why.
	snap := handle.Trace.Snapshot()
	tl := timeline.Assemble(snap)
	const tracePath = "vela_trace.json"
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("timeline: %d requests exported to %s (open in https://ui.perfetto.dev)\n",
		len(tl.Requests), tracePath)
	if err := tl.WriteCriticalPath(os.Stdout); err != nil {
		return err
	}

	// Bonus: sample from the fine-tuned model (forward passes flow
	// through the distributed experts).
	prompt := data.Encode("thou ")
	out, err := model.Generate(prompt, 40, 0.8, rand.New(rand.NewSource(99)))
	if err != nil {
		return err
	}
	fmt.Printf("sample: %q\n", "thou "+data.Decode(out))
	return nil
}

func fmtRow(row []float64) string {
	out := ""
	for i, v := range row {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", v)
	}
	return out
}
