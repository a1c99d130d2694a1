// Package vela's root benchmark harness: one benchmark per figure of the
// paper's evaluation (the paper has no numbered tables — Figs. 3, 5, 6, 7
// and the §V in-text quantities are the reproducible artifacts), plus the
// ablation benches called out in DESIGN.md §6 and micro-benchmarks of the
// performance-critical substrates.
//
// Figure-level benchmarks attach their headline quantities as custom
// metrics (MB/node/step, %reduction, %speedup) so `go test -bench` output
// doubles as the reproduction record; EXPERIMENTS.md summarizes the same
// numbers against the paper's.
package vela

import (
	"math/rand"
	"testing"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// --- Fig. 3: locality measurements on the live model ---------------------

func BenchmarkFig3aExpertAccessFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3a(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var maxRatio float64
		for _, r := range res.MaxMinRatio {
			if r > maxRatio {
				maxRatio = r
			}
		}
		b.ReportMetric(maxRatio, "max/min-freq")
	}
}

func BenchmarkFig3bRoutingConfidenceCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3b(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracAbove05*100, "%mass>0.5")
		b.ReportMetric(res.FracAbove07*100, "%mass>0.7")
	}
}

func BenchmarkFig3cSelectionStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3c(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxDrift, "max-freq-drift")
	}
}

func BenchmarkTheorem1Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Theorem1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SelectionOverlap, "topk-overlap")
	}
}

// --- Figs. 5 and 6: Mixtral-scale traffic and step time ------------------

func benchCell(b *testing.B, cell string, traffic bool) {
	b.Helper()
	profile := experiments.Cell[cell]
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig56(profile, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if traffic {
			b.ReportMetric(res.Results["ep"].AvgTrafficMB(), "ep-MB/node/step")
			b.ReportMetric(res.Results["vela"].AvgTrafficMB(), "vela-MB/node/step")
			b.ReportMetric(res.TrafficReductionVsEP*100, "%traffic-reduction")
		} else {
			b.ReportMetric(res.Results["ep"].AvgStepSec(), "ep-s/step")
			b.ReportMetric(res.Results["vela"].AvgStepSec(), "vela-s/step")
			b.ReportMetric(res.SpeedupVsEP*100, "%speedup")
		}
	}
}

func BenchmarkFig5aMixtralWikiTextTraffic(b *testing.B) { benchCell(b, "5a", true) }
func BenchmarkFig5bMixtralAlpacaTraffic(b *testing.B)   { benchCell(b, "5b", true) }
func BenchmarkFig5cGritLMWikiTextTraffic(b *testing.B)  { benchCell(b, "5c", true) }
func BenchmarkFig5dGritLMAlpacaTraffic(b *testing.B)    { benchCell(b, "5d", true) }

func BenchmarkFig6aMixtralWikiTextStepTime(b *testing.B) { benchCell(b, "5a", false) }
func BenchmarkFig6bMixtralAlpacaStepTime(b *testing.B)   { benchCell(b, "5b", false) }
func BenchmarkFig6cGritLMWikiTextStepTime(b *testing.B)  { benchCell(b, "5c", false) }
func BenchmarkFig6dGritLMAlpacaStepTime(b *testing.B)    { benchCell(b, "5d", false) }

// --- Fig. 7: access heat maps --------------------------------------------

func BenchmarkFig7Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wiki := experiments.Fig7(workload.MixtralWikiText, 2)
		alpaca := experiments.Fig7(workload.MixtralAlpaca, 2)
		b.ReportMetric(wiki.MeanTop2Mass, "wikitext-top2")
		b.ReportMetric(alpaca.MeanTop2Mass, "alpaca-top2")
	}
}

// --- §V in-text quantities ------------------------------------------------

func BenchmarkTextQuantities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Text(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.BaselineMBPerNodePerStep, "baseline-MB/node/step")
		b.ReportMetric(stats.TotalTBAllRuns, "total-TB")
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// BenchmarkAblationPlacementStrategies compares the placement quality of
// the LP against the greedy LPT heuristic and the non-optimizing
// baselines on the paper testbed.
func BenchmarkAblationPlacementStrategies(b *testing.B) {
	cfg := sim.PaperConfig()
	prob := cfg.PlacementProblem(workload.MixtralWikiText.Matrix())
	for _, s := range []placement.Strategy{
		placement.Sequential{}, placement.Random{Seed: 7},
		placement.Greedy{}, placement.LocalityLP{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := s.Place(prob)
				if err != nil {
					b.Fatal(err)
				}
				m, err := placement.Evaluate(prob, a)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.CommTime*1000, "comm-ms/step")
				b.ReportMetric(m.CrossNodeBytesPerNode/1e6, "MB/node/step")
			}
		})
	}
}

// BenchmarkAblationRounding compares the paper's three-step rounding
// against thresholding-only rounding of the same relaxed solution.
func BenchmarkAblationRounding(b *testing.B) {
	cfg := sim.PaperConfig()
	prob := cfg.PlacementProblem(workload.MixtralWikiText.Matrix())
	full, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		b.Fatal(err)
	}
	mFull, err := placement.Evaluate(prob, full)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(mFull.CommTime*1000, "full-round-comm-ms")
	}
}

// BenchmarkAblationTopology sweeps the inter-node bandwidth to show where
// locality-aware placement matters: the slower the cross-node links, the
// larger the gain.
func BenchmarkAblationTopology(b *testing.B) {
	for _, interGB := range []float64{0.5, 1.17, 4, 18.3} {
		name := map[float64]string{0.5: "inter0.5GBps", 1.17: "inter1.17GBps", 4: "inter4GBps", 18.3: "uniform18.3GBps"}[interGB]
		b.Run(name, func(b *testing.B) {
			cfg := sim.PaperConfig()
			cfg.Topo = cluster.PaperTestbed(48)
			cfg.Topo.Devices[0].Capacity = 30
			cfg.Topo.InterBW = interGB * cluster.GB
			cfg.Steps = 20
			for i := 0; i < b.N; i++ {
				res, err := sim.RunAll(cfg, workload.MixtralWikiText)
				if err != nil {
					b.Fatal(err)
				}
				red := placement.Improvement(res["ep"].AvgStepSec(), res["vela"].AvgStepSec())
				b.ReportMetric(red*100, "%speedup")
			}
		})
	}
}

// BenchmarkAblationDrift quantifies how much the placement computed from
// the step-0 probability matrix degrades over a long drifting run — the
// "locality persists" claim in operational terms.
func BenchmarkAblationDrift(b *testing.B) {
	cfg := sim.PaperConfig()
	cfg.Steps = 150
	profile := workload.MixtralWikiText
	prob := cfg.PlacementProblem(profile.Matrix())
	assign, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gen := workload.NewGenerator(profile, cfg.RoutingsPerStep())
		res, err := sim.RunVela(cfg, gen, assign, "vela")
		if err != nil {
			b.Fatal(err)
		}
		n := res.TrafficMB.Len()
		first := mean(res.TrafficMB.Values[:20])
		last := mean(res.TrafficMB.Values[n-20:])
		b.ReportMetric(first, "first20-MB")
		b.ReportMetric(last, "last20-MB")
		b.ReportMetric((last-first)/first*100, "%drift")
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- Broker runtime: one-to-all exchange -------------------------------------

// BenchmarkBrokerManyExpertsPerWorker measures the master↔worker
// scatter/gather with many experts stacked per worker — one frame per
// worker per direction, the hot path VELA's one-to-all claim rests on.
// The serial variant pins the worker's expert fan-out
// (tensor.SetParallelism) to one goroutine; the pooled variant lets
// distinct experts on a worker compute concurrently. The tokens/s ratio
// between the two is the fan-out's CPU-parallel win.
func BenchmarkBrokerManyExpertsPerWorker(b *testing.B) {
	const (
		workers = 2
		experts = 32
		d       = 64
		hidden  = 128
		rows    = 64
	)
	for _, bc := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"pooled", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			tensor.SetParallelism(bc.parallelism)
			b.Cleanup(func() { tensor.SetParallelism(0) })
			rng := rand.New(rand.NewSource(9))
			grid := [][]*moe.Expert{make([]*moe.Expert, experts)}
			assign := placement.NewAssignment(1, experts)
			for e := 0; e < experts; e++ {
				ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, rng, d, hidden, false)
				ex.AttachLoRA(rng, 2, 4)
				grid[0][e] = ex
				assign.Worker[0][e] = e % workers
			}
			dep := broker.StartLocalWorkers(workers, broker.DefaultWorkerConfig())
			exec := broker.NewExecutor(dep.Conns, assign)
			if err := exec.Distribute(grid, broker.ExpertSpec{D: d, Hidden: hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
				b.Fatal(err)
			}
			batches := make(map[int]*tensor.Tensor, experts)
			for e := 0; e < experts; e++ {
				batches[e] = tensor.Full(0.1, rows, d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.ForwardExperts(0, batches); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*experts*rows)/b.Elapsed().Seconds(), "tokens/s")
			_ = exec.Shutdown()
			_ = dep.Wait()
		})
	}
}

// --- Micro-benchmarks of the substrates -------------------------------------

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatMul(y)
	}
}

func BenchmarkLPSolvePaperScale(b *testing.B) {
	cfg := sim.PaperConfig()
	prob := cfg.PlacementProblem(workload.MixtralWikiText.Matrix())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (placement.LocalityLP{}).Place(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexSmall(b *testing.B) {
	p := &lp.Problem{NumVars: 2, Objective: []float64{-1, -2}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.LE, 4)
	p.AddConstraint([]int{0}, []float64{1}, lp.LE, 2)
	p.AddConstraint([]int{1}, []float64{1}, lp.LE, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneratorStep(b *testing.B) {
	cfg := sim.PaperConfig()
	gen := workload.NewGenerator(workload.MixtralWikiText, cfg.RoutingsPerStep())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Step()
	}
}

func BenchmarkMoEBlockForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const d, experts, tokens = 32, 8, 128
	blk := moe.NewBlock(0, rng, d, experts, 2, false)
	grid := [][]*moe.Expert{make([]*moe.Expert, experts)}
	for e := 0; e < experts; e++ {
		grid[0][e] = moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, rng, d, 2*d, false)
	}
	blk.Exec = moe.NewLocalExecutor(grid)
	x := tensor.Randn(rng, 1, tokens, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
