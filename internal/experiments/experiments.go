// Package experiments regenerates every figure of the paper's evaluation
// plus its in-text quantities. Each figure has one entry point returning
// structured data; cmd/velabench renders it, and its tests pin the
// rendered quick-scale output of every figure byte for byte.
//
// Two scales are supported: Quick (reduced steps/sizes, used by tests and
// the default CLI) and Full (the paper's parameters: 300 fine-tuning
// steps for Fig. 3, 500 simulated steps for Figs. 5–6).
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trainer"
	"repro/internal/workload"
)

// Scale selects experiment fidelity.
type Scale int

// Experiment scales.
const (
	// Quick shrinks steps and corpus sizes for fast runs; shapes are
	// preserved.
	Quick Scale = iota + 1
	// Full uses the paper's step counts and the full TinyMistral
	// geometry.
	Full
)

// checkpoint is the shared pre-trained TinyMistral-style model, built
// once per scale and reused by all Fig. 3 experiments.
type checkpoint struct {
	cfg   moe.Config
	model *moe.Model
	grid  [][]*moe.Expert
	err   error
}

var (
	ckptOnce sync.Once
	ckptVal  *checkpoint

	quickOnce sync.Once
	quickVal  *checkpoint
)

func tinyConfig(s Scale) moe.Config {
	if s == Full {
		return moe.TinyMistralConfig()
	}
	// Quick keeps the expert geometry (6 experts, top-2) but fewer,
	// narrower layers.
	return moe.Config{Vocab: data.VocabSize, D: 24, Heads: 2, Hidden: 48, Layers: 4, Experts: 6, TopK: 2}
}

func pretrainConfig(s Scale) trainer.PretrainConfig {
	cfg := trainer.DefaultPretrain()
	if s == Quick {
		cfg.Steps = 120
		cfg.Batch = 2
		cfg.SeqLen = 32
	}
	return cfg
}

// sharedCheckpoint returns the shared pre-trained model for the scale,
// building it on first use. The returned model/grid must be treated as
// read-only; experiments that fine-tune must Clone first.
func sharedCheckpoint(s Scale) (*moe.Model, [][]*moe.Expert, moe.Config, error) {
	build := func() *checkpoint {
		cfg := tinyConfig(s)
		m, grid, err := trainer.BuildPretrained(cfg, corpusSize(s), pretrainConfig(s))
		return &checkpoint{cfg: cfg, model: m, grid: grid, err: err}
	}
	var c *checkpoint
	if s == Full {
		ckptOnce.Do(func() { ckptVal = build() })
		c = ckptVal
	} else {
		quickOnce.Do(func() { quickVal = build() })
		c = quickVal
	}
	return c.model, c.grid, c.cfg, c.err
}

func corpusSize(s Scale) int {
	if s == Full {
		return 40000
	}
	return 8000
}

// freshCheckpoint rebuilds the checkpoint from scratch (identical to the
// shared one, deterministic seeds) for experiments that mutate weights.
func freshCheckpoint(s Scale) (*moe.Model, [][]*moe.Expert, moe.Config, error) {
	cfg := tinyConfig(s)
	m, grid, err := trainer.BuildPretrained(cfg, corpusSize(s), pretrainConfig(s))
	return m, grid, cfg, err
}

// --- Fig. 3(a): expert access frequency of the pre-trained model -------

// Fig3aResult is the per-layer, per-expert access frequency measured by
// passing the fine-tuning dataset through the pre-trained model in
// inference mode.
type Fig3aResult struct {
	Freq [][]float64 // [layer][expert], each row sums to topK
	// MaxMinRatio[l] is max/min frequency within layer l — the disparity
	// the paper highlights ("experts 2 and 3 in the first block are
	// accessed significantly more frequently").
	MaxMinRatio []float64
}

// Fig3a measures expert locality of the pre-trained checkpoint on the
// Shakespeare stand-in corpus.
func Fig3a(s Scale) (*Fig3aResult, error) {
	m, _, cfg, err := sharedCheckpoint(s)
	if err != nil {
		return nil, err
	}
	stats, err := trainer.Profile(m, data.Shakespeare(corpusSize(s)), profileBatches(s), 2, 32, 31)
	if err != nil {
		return nil, err
	}
	freq := stats.Freq()
	res := &Fig3aResult{Freq: freq, MaxMinRatio: make([]float64, cfg.Layers)}
	for l, row := range freq {
		mn, mx := row[0], row[0]
		for _, v := range row {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if mn <= 0 {
			mn = 1e-9
		}
		res.MaxMinRatio[l] = mx / mn
	}
	return res, nil
}

func profileBatches(s Scale) int {
	if s == Full {
		return 40
	}
	return 12
}

// --- Fig. 3(b): CDF of the selected experts' softmax mass --------------

// Fig3bResult is the CDF of Σ softmax scores of the selected experts in
// the first MoE block.
type Fig3bResult struct {
	Thresholds []float64
	CDF        []float64
	// FracAbove05 and FracAbove07 summarize the distribution the way the
	// paper reports it ("nearly all scores exceed 0.5, with over 60% ...
	// higher than 0.7").
	FracAbove05 float64
	FracAbove07 float64
}

// Fig3b measures routing confidence of the pre-trained checkpoint.
func Fig3b(s Scale) (*Fig3bResult, error) {
	m, _, _, err := sharedCheckpoint(s)
	if err != nil {
		return nil, err
	}
	b := data.NewBatcher(data.Shakespeare(corpusSize(s)), 2, 32, 33)
	var masses []float64
	for i := 0; i < profileBatches(s); i++ {
		ids, _ := b.Next()
		if _, err := m.Forward(ids, 2, 32); err != nil {
			return nil, err
		}
		r := m.Layers[0].MoE.LastRouting()
		masses = append(masses, r.SelectedMass...)
	}
	thresholds := make([]float64, 0, 26)
	for v := 0.5; v <= 1.0001; v += 0.02 {
		thresholds = append(thresholds, v)
	}
	cdf := moe.CDF(masses, thresholds)
	above := func(th float64) float64 {
		cnt := 0
		for _, v := range masses {
			if v > th {
				cnt++
			}
		}
		return float64(cnt) / float64(len(masses))
	}
	return &Fig3bResult{
		Thresholds:  thresholds,
		CDF:         cdf,
		FracAbove05: above(0.5),
		FracAbove07: above(0.7),
	}, nil
}

// --- Fig. 3(c): access frequency during fine-tuning ---------------------

// Fig3cResult tracks the per-expert access frequency of the first MoE
// block across fine-tuning steps.
type Fig3cResult struct {
	// Freq[e] is the per-step access frequency series of expert e.
	Freq []*obs.Series
	// MaxDrift is the largest |freq(step) − freq(0)| over experts and
	// steps — the stability number behind "remains very stable".
	MaxDrift float64
	// InitialFreq[e] records the step-0 frequency.
	InitialFreq []float64
}

// Fig3c fine-tunes the checkpoint on Shakespeare and tracks routing of
// the first block step by step.
func Fig3c(s Scale) (*Fig3cResult, error) {
	m, grid, cfg, err := freshCheckpoint(s)
	if err != nil {
		return nil, err
	}
	trainer.PrepareForFinetune(m, grid, loraConfig(s))
	exec := m.Layers[0].MoE.Exec.(*moe.LocalExecutor)
	batch, seqLen := 2, 32
	b := data.NewBatcher(data.Shakespeare(corpusSize(s)), batch, seqLen, 35)
	ft := trainer.NewLocalFinetuner(m, exec, b)

	res := &Fig3cResult{Freq: make([]*obs.Series, cfg.Experts)}
	for e := range res.Freq {
		res.Freq[e] = &obs.Series{Name: fmt.Sprintf("expert%d", e)}
	}
	steps := fig3cSteps(s)
	// Per-step (not cumulative) frequency of block 0.
	stats := moe.NewAccessStats(cfg.Layers, cfg.Experts)
	m.Layers[0].MoE.Stats = stats
	defer func() { m.Layers[0].MoE.Stats = nil }()

	for step := 0; step < steps; step++ {
		stats.Reset()
		if _, err := ft.Step(); err != nil {
			return nil, err
		}
		freq := stats.Freq()[0]
		for e, v := range freq {
			res.Freq[e].Append(v)
		}
	}
	res.InitialFreq = make([]float64, cfg.Experts)
	for e := range res.Freq {
		res.InitialFreq[e] = res.Freq[e].Values[0]
		for _, v := range res.Freq[e].Values {
			if d := abs(v - res.InitialFreq[e]); d > res.MaxDrift {
				res.MaxDrift = d
			}
		}
	}
	return res, nil
}

func loraConfig(s Scale) trainer.LoRAConfig {
	if s == Full {
		return trainer.PaperLoRA()
	}
	return trainer.LoRAConfig{Rank: 4, Alpha: 8, Seed: 21}
}

func fig3cSteps(s Scale) int {
	if s == Full {
		return 300
	}
	return 40
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// --- Theorem 1 on the real model ----------------------------------------

// TheoremResult compares the measured softmax-score change after one
// fine-tuning step with the structure Theorem 1 predicts.
type TheoremResult struct {
	// MeanDeltaConfident is the mean ΔP over tokens whose selected mass
	// exceeded 0.8 before the step; MeanDeltaUncertain over tokens below
	// 0.6. Theorem 1 predicts the confident group moves less.
	MeanDeltaConfident float64
	MeanDeltaUncertain float64
	// SelectionOverlap is the fraction of tokens keeping the same top-k
	// set across the step.
	SelectionOverlap float64
}

// Theorem1 runs one fine-tuning step and measures routing movement on a
// fixed probe batch.
func Theorem1(s Scale) (*TheoremResult, error) {
	m, grid, _, err := freshCheckpoint(s)
	if err != nil {
		return nil, err
	}
	trainer.PrepareForFinetune(m, grid, loraConfig(s))
	exec := m.Layers[0].MoE.Exec.(*moe.LocalExecutor)
	batch, seqLen := 2, 32
	probeB := data.NewBatcher(data.Shakespeare(corpusSize(s)), batch, seqLen, 77)
	probeIDs, _ := probeB.Next()

	probe := func() (*moe.Routing, error) {
		if _, err := m.Forward(probeIDs, batch, seqLen); err != nil {
			return nil, err
		}
		return m.Layers[0].MoE.LastRouting(), nil
	}
	before, err := probe()
	if err != nil {
		return nil, err
	}
	beforeScores := before.Scores.Clone()

	ft := trainer.NewLocalFinetuner(m, exec, data.NewBatcher(data.Shakespeare(corpusSize(s)), batch, seqLen, 35))
	if _, err := ft.Step(); err != nil {
		return nil, err
	}
	after, err := probe()
	if err != nil {
		return nil, err
	}

	res := &TheoremResult{SelectionOverlap: moe.SelectionOverlap(before, after)}
	var confSum, confN, uncSum, uncN float64
	for t := 0; t < beforeScores.Rows(); t++ {
		var maxDelta float64
		for e := 0; e < beforeScores.Cols(); e++ {
			if d := abs(after.Scores.At(t, e) - beforeScores.At(t, e)); d > maxDelta {
				maxDelta = d
			}
		}
		switch {
		case before.SelectedMass[t] > 0.8:
			confSum += maxDelta
			confN++
		case before.SelectedMass[t] < 0.6:
			uncSum += maxDelta
			uncN++
		}
	}
	if confN > 0 {
		res.MeanDeltaConfident = confSum / confN
	}
	if uncN > 0 {
		res.MeanDeltaUncertain = uncSum / uncN
	}
	return res, nil
}

// --- Figs. 5 and 6: Mixtral-scale traffic and step time ------------------

// Cell names the four evaluation cells in the paper's subfigure order.
var Cell = map[string]workload.Profile{
	"5a": workload.MixtralWikiText,
	"5b": workload.MixtralAlpaca,
	"5c": workload.GritLMWikiText,
	"5d": workload.GritLMAlpaca,
}

// Fig56Result bundles the per-strategy series for one cell.
type Fig56Result struct {
	Profile workload.Profile
	Results map[string]*sim.Result
	// TrafficReductionVsEP and SpeedupVsEP compare vela against EP.
	TrafficReductionVsEP float64
	SpeedupVsEP          float64
}

// Fig56 simulates one (model × dataset) cell for both Fig. 5 (traffic)
// and Fig. 6 (time).
func Fig56(profile workload.Profile, s Scale) (*Fig56Result, error) {
	cfg := sim.PaperConfig()
	if s == Quick {
		cfg.Steps = 60
	}
	results, err := sim.RunAll(cfg, profile)
	if err != nil {
		return nil, err
	}
	ep, vela := results["ep"], results["vela"]
	return &Fig56Result{
		Profile:              profile,
		Results:              results,
		TrafficReductionVsEP: placement.Improvement(ep.AvgTrafficMB(), vela.AvgTrafficMB()),
		SpeedupVsEP:          placement.Improvement(ep.AvgStepSec(), vela.AvgStepSec()),
	}, nil
}

// --- Fig. 7: expert access heat maps -------------------------------------

// Fig7Result is the access-frequency heat map of one profile: frequency
// of token selection per (layer, expert), values in [0, 1] with rows
// summing to topK — exactly the quantity Fig. 7 colors.
type Fig7Result struct {
	Profile workload.Profile
	Freq    [][]float64
	// MeanTop2Mass summarizes concentration (probability mass of the two
	// most popular experts, averaged over layers).
	MeanTop2Mass float64
}

// Fig7 materializes the heat map for a profile, measured from sampled
// routing counts like the paper measures real traffic.
func Fig7(profile workload.Profile, topK int) *Fig7Result {
	gen := workload.NewGenerator(profile, 20000)
	stats := moe.NewAccessStats(profile.Layers, profile.Experts)
	for s := 0; s < 5; s++ {
		counts := gen.Step()
		for l, row := range counts {
			stats.RecordCounts(l, row, int64(20000/topK))
		}
	}
	freq := stats.Freq()
	tm := workload.TopMass(stats.Prob(), 2)
	var mean float64
	for _, v := range tm {
		mean += v
	}
	mean /= float64(len(tm))
	return &Fig7Result{Profile: profile, Freq: freq, MeanTop2Mass: mean}
}

// --- In-text quantities ---------------------------------------------------

// TextStats reproduces the numbers quoted in the prose of §V.
type TextStats struct {
	// BaselineMBPerNodePerStep ≈ 866 MB in the paper.
	BaselineMBPerNodePerStep float64
	// ExternalTokensPerBlock ≈ "more than 2600 tokens ... per MoE block".
	ExternalTokensPerBlock float64
	// TotalTBAllRuns is the cross-node data volume over all 16 evaluated
	// runs ("over 18 TB of intermediate data").
	TotalTBAllRuns float64
	// ReductionRange / SpeedupRange per dataset family.
	WikiTextReduction [2]float64
	AlpacaReduction   [2]float64
	SpeedupRange      [2]float64
}

// Text computes the in-text quantities from the same machinery as
// Figs. 5–6.
func Text(s Scale) (*TextStats, error) {
	cfg := sim.PaperConfig()
	if s == Quick {
		cfg.Steps = 40
	}
	stats := &TextStats{
		WikiTextReduction: [2]float64{1, 0},
		AlpacaReduction:   [2]float64{1, 0},
		SpeedupRange:      [2]float64{1, 0},
	}
	var totalBytes float64
	// Fixed orders, not map order: the float sums below must not depend
	// on how a map happens to iterate.
	for _, name := range []string{"5a", "5b", "5c", "5d"} {
		res, err := sim.RunAll(cfg, Cell[name])
		if err != nil {
			return nil, err
		}
		ep, vela := res["ep"], res["vela"]
		if name == "5a" {
			stats.BaselineMBPerNodePerStep = ep.AvgTrafficMB()
			// External token copies per block per step for the EP
			// baseline: bytes / (4 transfers × bytes/token × layers).
			stats.ExternalTokensPerBlock = ep.TotalCrossBytes / float64(cfg.Steps) /
				(4 * cfg.BytesPerToken() * float64(cfg.Layers))
		}
		for _, strategy := range []string{"ep", "sequential", "random", "vela"} {
			// Scale the observed volume to the paper's 500 steps.
			totalBytes += res[strategy].TotalCrossBytes * 500 / float64(cfg.Steps)
		}
		red := placement.Improvement(ep.AvgTrafficMB(), vela.AvgTrafficMB())
		sp := placement.Improvement(ep.AvgStepSec(), vela.AvgStepSec())
		tgt := &stats.AlpacaReduction
		if name == "5a" || name == "5c" {
			tgt = &stats.WikiTextReduction
		}
		if red < tgt[0] {
			tgt[0] = red
		}
		if red > tgt[1] {
			tgt[1] = red
		}
		if sp < stats.SpeedupRange[0] {
			stats.SpeedupRange[0] = sp
		}
		if sp > stats.SpeedupRange[1] {
			stats.SpeedupRange[1] = sp
		}
	}
	stats.TotalTBAllRuns = totalBytes / 1e12
	return stats, nil
}
