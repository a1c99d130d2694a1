// Command velabench regenerates the data behind every figure of the
// paper's evaluation, and the placement study behind them.
//
// Usage:
//
//	velabench -fig 3a|3b|3c|thm|5a|5b|5c|5d|6a|6b|6c|6d|7a|7b|text|sweep|topo|drift|place|all [-full] [-csv]
//
// By default experiments run at Quick scale (reduced steps; same shapes).
// -full uses the paper's parameters: the exact TinyMistral geometry with
// 300 fine-tuning steps for Fig. 3, and 500 simulated steps for
// Figs. 5–6. -csv emits raw series instead of summaries, for plotting.
// -fig place solves the placement with every strategy for every paper
// profile and prints the expected per-step communication (Eq. 5–8).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (3a,3b,3c,thm,5a..5d,6a..6d,7a,7b,text,sweep,topo,drift,place,all)")
	full := flag.Bool("full", false, "run at the paper's full scale (slower)")
	csv := flag.Bool("csv", false, "emit raw CSV series instead of summaries")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	if err := run(*fig, scale, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "velabench:", err)
		os.Exit(1)
	}
}

// paperFigs are the figures of the paper's evaluation, in the order
// -fig all prints them.
var paperFigs = []string{"3a", "3b", "3c", "thm", "5a", "5b", "5c", "5d", "6a", "6b", "6c", "6d", "7a", "7b", "text"}

func run(fig string, scale experiments.Scale, csv bool) error {
	switch fig {
	case "3a":
		return fig3a(scale)
	case "3b":
		return fig3b(scale)
	case "3c":
		return fig3c(scale, csv)
	case "thm":
		return theorem(scale)
	case "5a", "5b", "5c", "5d":
		return fig56(fig, scale, csv, true)
	case "6a", "6b", "6c", "6d":
		return fig56("5"+fig[1:], scale, csv, false)
	case "7a":
		return fig7(workload.MixtralWikiText)
	case "7b":
		return fig7(workload.MixtralAlpaca)
	case "text":
		return text(scale)
	case "sweep":
		return sweep(scale)
	case "topo":
		return topoSweep(scale)
	case "drift":
		return driftStudy(scale)
	case "place":
		return placeStudy()
	case "all":
		for _, f := range paperFigs {
			fmt.Printf("\n================ Figure %s ================\n", f)
			if err := run(f, scale, csv); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func fig3a(scale experiments.Scale) error {
	res, err := experiments.Fig3a(scale)
	if err != nil {
		return err
	}
	fmt.Println("Fig 3(a) — expert access frequency per MoE block (pre-trained model, Shakespeare corpus)")
	fmt.Println("layer | frequency per expert (rows sum to 2 = top-k)")
	for l, row := range res.Freq {
		cells := make([]string, len(row))
		for e, v := range row {
			cells[e] = fmt.Sprintf("%.3f", v)
		}
		fmt.Printf("%5d | %s  (max/min %.2f)\n", l+1, strings.Join(cells, " "), res.MaxMinRatio[l])
	}
	return nil
}

func fig3b(scale experiments.Scale) error {
	res, err := experiments.Fig3b(scale)
	if err != nil {
		return err
	}
	fmt.Println("Fig 3(b) — CDF of the selected experts' softmax mass (first MoE block)")
	for i, th := range res.Thresholds {
		if i%2 == 0 {
			fmt.Printf("  P(mass ≤ %.2f) = %.3f\n", th, res.CDF[i])
		}
	}
	fmt.Printf("fraction above 0.5: %.1f%%   (paper: \"nearly all\")\n", res.FracAbove05*100)
	fmt.Printf("fraction above 0.7: %.1f%%   (paper: \"over 60%%\")\n", res.FracAbove07*100)
	return nil
}

func fig3c(scale experiments.Scale, csv bool) error {
	res, err := experiments.Fig3c(scale)
	if err != nil {
		return err
	}
	fmt.Println("Fig 3(c) — per-expert access frequency during fine-tuning (first MoE block)")
	if csv {
		return writeCSV(os.Stdout, res.Freq...)
	}
	for e, s := range res.Freq {
		sum := s.Summarize()
		fmt.Printf("expert %d: start %.3f  mean %.3f ± %.3f  end %.3f\n",
			e+1, s.Values[0], sum.Mean, sum.Std, s.Values[s.Len()-1])
	}
	fmt.Printf("max per-step drift from initial: %.3f (batch noise included)\n", res.MaxDrift)
	return nil
}

func theorem(scale experiments.Scale) error {
	res, err := experiments.Theorem1(scale)
	if err != nil {
		return err
	}
	fmt.Println("Theorem 1 — routing stability after one fine-tuning step")
	fmt.Printf("mean ΔP, confident tokens (mass > 0.8): %.2e\n", res.MeanDeltaConfident)
	fmt.Printf("mean ΔP, uncertain tokens (mass < 0.6): %.2e\n", res.MeanDeltaUncertain)
	fmt.Printf("top-k selection overlap across the step: %.3f\n", res.SelectionOverlap)
	return nil
}

func fig56(cell string, scale experiments.Scale, csv, traffic bool) error {
	profile := experiments.Cell[cell]
	res, err := experiments.Fig56(profile, scale)
	if err != nil {
		return err
	}
	kind, unit := "cross-node traffic", "MB/node/step"
	if !traffic {
		kind, unit = "time per fine-tuning step", "s/step"
	}
	fmt.Printf("Fig %s — %s, %s\n", cellLabel(cell, traffic), kind, profile.Name)
	names := []string{"ep", "sequential", "random", "vela"}
	if csv {
		var series []*obs.Series
		for _, n := range names {
			if traffic {
				series = append(series, res.Results[n].TrafficMB)
			} else {
				series = append(series, res.Results[n].StepSec)
			}
		}
		return writeCSV(os.Stdout, series...)
	}
	for _, n := range names {
		r := res.Results[n]
		var sum obs.Summary
		if traffic {
			sum = r.TrafficMB.Summarize()
		} else {
			sum = r.StepSec.Summarize()
		}
		fmt.Printf("%-10s mean %8.3f %s  (min %.3f, max %.3f)\n", n, sum.Mean, unit, sum.Min, sum.Max)
	}
	if traffic {
		fmt.Printf("vela vs EP: %.1f%% less traffic (paper: 18.1–25.3%% WikiText, 17.3–20.1%% Alpaca)\n",
			res.TrafficReductionVsEP*100)
	} else {
		fmt.Printf("vela vs EP: %.1f%% faster (paper: 20.6–28.2%%)\n", res.SpeedupVsEP*100)
	}
	return nil
}

func cellLabel(cell string, traffic bool) string {
	if traffic {
		return cell
	}
	return "6" + cell[1:]
}

func fig7(profile workload.Profile) error {
	res := experiments.Fig7(profile, 2)
	fmt.Printf("Fig 7 — expert access frequency heat map, %s (rows: experts, cols: layers)\n", profile.Name)
	for e := 0; e < profile.Experts; e++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "expert %d |", e+1)
		for l := 0; l < profile.Layers; l++ {
			sb.WriteByte(shade(res.Freq[l][e]))
		}
		fmt.Println(sb.String())
	}
	fmt.Printf("mean top-2 probability mass: %.3f\n", res.MeanTop2Mass)
	fmt.Println(`legend: " " < 0.1 ≤ "." < 0.25 ≤ "+" < 0.45 ≤ "#" < 0.7 ≤ "@"`)
	return nil
}

func shade(v float64) byte {
	switch {
	case v < 0.10:
		return ' '
	case v < 0.25:
		return '.'
	case v < 0.45:
		return '+'
	case v < 0.70:
		return '#'
	default:
		return '@'
	}
}

func text(scale experiments.Scale) error {
	stats, err := experiments.Text(scale)
	if err != nil {
		return err
	}
	fmt.Println("In-text quantities (§V)")
	fmt.Printf("baseline external traffic:     %7.0f MB/node/step   (paper: ≈866 MB)\n", stats.BaselineMBPerNodePerStep)
	fmt.Printf("external token copies/block:   %7.0f                (paper: \"more than 2600\")\n", stats.ExternalTokensPerBlock)
	fmt.Printf("total cross-node volume:       %7.1f TB             (paper: \"over 18 TB\")\n", stats.TotalTBAllRuns)
	fmt.Printf("traffic reduction, WikiText:   %5.1f%% – %5.1f%%      (paper: 18.1%% – 25.3%%)\n",
		stats.WikiTextReduction[0]*100, stats.WikiTextReduction[1]*100)
	fmt.Printf("traffic reduction, Alpaca:     %5.1f%% – %5.1f%%      (paper: 17.3%% – 20.1%%)\n",
		stats.AlpacaReduction[0]*100, stats.AlpacaReduction[1]*100)
	fmt.Printf("step-time speedup vs EP:       %5.1f%% – %5.1f%%      (paper: 20.6%% – 28.2%%)\n",
		stats.SpeedupRange[0]*100, stats.SpeedupRange[1]*100)
	return nil
}

// sweep is the concentration-ablation study from DESIGN.md §6: placement
// gain as a function of access concentration, explaining the WikiText vs
// Alpaca gap.
func sweep(scale experiments.Scale) error {
	cfg := sim.PaperConfig()
	cfg.Steps = 40
	if scale == experiments.Full {
		cfg.Steps = 150
	}
	fmt.Println("Ablation — placement gain vs access concentration")
	fmt.Println("sigma | top2 mass | traffic reduction vs EP | speedup vs EP")
	for _, sigma := range []float64{0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0} {
		p := workload.Profile{
			Name: fmt.Sprintf("sweep-%.2f", sigma), Layers: 32, Experts: 8,
			SigmaBase: sigma, SigmaHot: sigma, HotFrac: 0, Seed: 300,
		}
		res, err := sim.RunAll(cfg, p)
		if err != nil {
			return err
		}
		ep, vela := res["ep"], res["vela"]
		top2 := mean(workload.TopMass(p.Matrix(), 2))
		fmt.Printf("%5.2f | %9.3f | %22.1f%% | %12.1f%%\n",
			sigma, top2,
			100*placement.Improvement(ep.AvgTrafficMB(), vela.AvgTrafficMB()),
			100*placement.Improvement(ep.AvgStepSec(), vela.AvgStepSec()))
	}
	return nil
}

// topoSweep is the topology ablation: the value of locality-aware
// placement as the inter-node bandwidth approaches the intra-node
// bandwidth.
func topoSweep(scale experiments.Scale) error {
	steps := 30
	if scale == experiments.Full {
		steps = 120
	}
	fmt.Println("Ablation — gain vs inter-node bandwidth (intra fixed at 18.3 GB/s)")
	fmt.Println("inter GB/s | traffic reduction vs EP | speedup vs EP")
	for _, gbps := range []float64{0.5, 1.17, 2.5, 5, 10, 18.3} {
		cfg := sim.PaperConfig()
		cfg.Steps = steps
		cfg.Topo.InterBW = gbps * float64(uint64(1)<<30)
		res, err := sim.RunAll(cfg, workload.MixtralWikiText)
		if err != nil {
			return err
		}
		ep, vela := res["ep"], res["vela"]
		fmt.Printf("%10.2f | %22.1f%% | %12.1f%%\n", gbps,
			100*placement.Improvement(ep.AvgTrafficMB(), vela.AvgTrafficMB()),
			100*placement.Improvement(ep.AvgStepSec(), vela.AvgStepSec()))
	}
	return nil
}

// placeStudy is the placement explorer (§IV-B): for every paper profile
// on the paper's 3×2-GPU testbed, every strategy's expected per-step
// communication, and how much routing probability each node serves under
// the LP's placement.
func placeStudy() error {
	cfg := sim.PaperConfig()
	strategies := []placement.Strategy{
		placement.Sequential{},
		placement.Random{Seed: 7},
		placement.Greedy{},
		placement.LocalityLP{},
	}
	fmt.Println("Placement — expected communication per strategy, paper testbed")
	for _, profile := range workload.PaperProfiles() {
		P := profile.Matrix()
		prob := cfg.PlacementProblem(P)
		fmt.Printf("== %s (top-2 mass %.2f, entropy %.2f nats) ==\n",
			profile.Name, mean(workload.TopMass(P, 2)), mean(workload.Entropy(P)))
		var seqTime float64
		var a *placement.Assignment
		for i, s := range strategies {
			var err error
			if a, err = s.Place(prob); err != nil {
				return fmt.Errorf("%s: %w", s.Name(), err)
			}
			m, err := placement.Evaluate(prob, a)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s expected comm %.3f s/step, external %.0f MB/node/step",
				s.Name(), m.CommTime, m.CrossNodeBytesPerNode/1e6)
			if i == 0 {
				seqTime = m.CommTime
			} else {
				fmt.Printf("  (%+.1f%% comm vs sequential)", 100*(m.CommTime-seqTime)/seqTime)
			}
			fmt.Println()
		}
		// a is the LP's placement, the last strategy's.
		nodeMass := make([]float64, slices.Max(prob.WorkerNode)+1)
		for l := range P {
			for e, p := range P[l] {
				nodeMass[prob.WorkerNode[a.Worker[l][e]]] += p / float64(len(P))
			}
		}
		fmt.Print("routing mass per node under vela-lp:")
		for node, m := range nodeMass {
			sep, master := ",", ""
			if node == 0 {
				sep = ""
			}
			if node == prob.MasterNode {
				master = " (master)"
			}
			fmt.Printf("%s node%d%s %.2f", sep, node, master, m)
		}
		fmt.Print("\n\n")
	}
	return nil
}

// driftStudy quantifies how much a placement solved from the step-0
// probability matrix degrades as the router drifts — the operational form
// of "expert locality persists", plus the re-placement controller's verdict
// (replace.Decide) on whether re-solving at the end would pay.
func driftStudy(scale experiments.Scale) error {
	cfg := sim.PaperConfig()
	if scale == experiments.Quick {
		cfg.Steps = 150
	}
	profile := workload.MixtralWikiText
	prob := cfg.PlacementProblem(profile.Matrix())
	assign, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(profile, cfg.RoutingsPerStep())
	res, err := sim.RunVela(cfg, gen, assign, "vela")
	if err != nil {
		return err
	}
	n := res.TrafficMB.Len()
	window := 20
	if window > n/2 {
		window = n / 2
	}
	first := mean(res.TrafficMB.Values[:window])
	last := mean(res.TrafficMB.Values[n-window:])
	fmt.Println("Ablation — stale probability matrix under router drift")
	fmt.Printf("placement solved at step 0, run for %d steps\n", cfg.Steps)
	fmt.Printf("external traffic, first %d steps: %.1f MB/node/step\n", window, first)
	fmt.Printf("external traffic, last %d steps:  %.1f MB/node/step (%+.2f%%)\n",
		window, last, 100*(last-first)/first)

	// Would re-solving at the end pay? Ask the controller's decision
	// function with the drifted matrix.
	drifted := workload.DriftedMatrix(profile.Matrix(), profile.Drift, cfg.Steps)
	d, err := replace.Decide(cfg.PlacementProblem(drifted), assign, replace.Config{
		ExpertBytes: 3 * 4096 * 14336 * 2, // a Mixtral expert: three 4096×14336 matrices in fp16
	})
	if err != nil {
		return err
	}
	fmt.Printf("controller: %v (a fresh solve changes expected comm time by %+.2f%%, moving %d experts)\n",
		d.Verdict, -100*d.Savings/d.Current, len(d.Moves))
	fmt.Println("(locality persists: the stale placement loses almost nothing — Theorem 1 in action)")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeCSV emits the series as columns with a header row; series of
// unequal length are padded with empty cells.
func writeCSV(w io.Writer, series ...*obs.Series) error {
	if len(series) == 0 {
		return nil
	}
	maxLen := 0
	for i, s := range series {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for row := 0; row < maxLen; row++ {
		for i, s := range series {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if row < len(s.Values) {
				if _, err := fmt.Fprintf(w, "%g", s.Values[row]); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
