// Package sim is the step-level fine-tuning simulator used to regenerate
// the paper's Mixtral-scale results (Figs. 5 and 6). It combines a
// workload generator (sampled gating traces), a cluster topology, a
// placement, and the paper's communication cost model (§IV-B) into
// per-step traffic and step-time series for each strategy:
//
//   - VELA framework (any placement): one-to-all master↔worker exchanges,
//     no synchronization barrier; per block the master waits for the
//     slowest worker (Eq. 7).
//   - Conventional expert parallelism: tokens sharded across all devices,
//     four all-to-all exchanges per block each preceded by a size
//     synchronization, plus the gradient all-reduce for the replicated
//     trainable backbone parameters.
//
// The simulator is deterministic for a fixed workload generator, and its
// absolute times are modeled (the paper's testbed is six V100s; we have
// none) — EXPERIMENTS.md compares shapes and ratios, not wall-clock.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config describes one simulated fine-tuning run.
type Config struct {
	Topo cluster.Topology

	Layers  int
	Experts int
	TopK    int
	// TokensPerStep is batch·seqLen — the number of tokens entering each
	// MoE block per step.
	TokensPerStep int
	// FeatureSize is H (4096 for Mixtral-class models).
	FeatureSize int
	// BitDepth is b, the bits per exchanged feature value (16 in the
	// paper's half-precision exchange).
	BitDepth int
	// Encoding is the modeled wire encoding; its per-row scale overhead
	// (int8) is added to BytesPerToken on top of the BitDepth payload.
	// The zero value adds nothing.
	Encoding wire.Encoding
	Steps    int

	// ExpertSecPerToken models worker-side expert compute (forward plus
	// backward) per routed token copy.
	ExpertSecPerToken float64
	// BackboneSecPerStep models the non-expert computation per step
	// (attention, norms, gate, LM head and their backward passes).
	BackboneSecPerStep float64

	// EPSyncSec is the status-synchronization barrier preceding each
	// all-to-all exchange in conventional expert parallelism ("token
	// exchange ... is interrupted by a status synchronization process").
	EPSyncSec float64
	// EPGradSyncBytes is the size of the replicated trainable (LoRA)
	// parameters all-reduced at the end of each EP step.
	EPGradSyncBytes float64
}

// PaperConfig returns the simulator configuration for the paper's
// evaluation: Mixtral-class geometry (32 blocks × 8 experts, top-2,
// H=4096, 16-bit features), batch 8, 500 steps, on the 3×2-V100 testbed.
//
// The compute-side constants are calibrated, not measured: they are
// chosen so the communication/computation balance matches the paper's
// regime, where communication dominates enough that a ~20% traffic
// reduction yields a 20–28% step-time improvement once EP's
// synchronization overhead is added.
func PaperConfig() Config {
	// The master process shares GPU 0 with worker 0; the backbone (~3 GB
	// for Mixtral-8x7B), its activations and optimizer states leave that
	// worker room for far fewer experts than its peers.
	topo := cluster.PaperTestbed(48)
	topo.Devices[0].Capacity = 30
	return Config{
		Topo:          topo,
		Layers:        32,
		Experts:       8,
		TopK:          2,
		TokensPerStep: 8 * 224, // batch 8 × sequence length 224
		FeatureSize:   4096,
		BitDepth:      16,
		Steps:         500,

		ExpertSecPerToken:  2.0e-6,
		BackboneSecPerStep: 0.42,

		EPSyncSec:       1.8e-3,
		EPGradSyncBytes: 60e6, // LoRA adapters on all linears, fp32 grads
	}
}

// validate checks the configuration.
func (c *Config) validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	switch {
	case c.Layers <= 0 || c.Experts <= 0 || c.TopK <= 0 || c.TopK > c.Experts:
		return fmt.Errorf("sim: bad geometry %d/%d/%d", c.Layers, c.Experts, c.TopK)
	case c.TokensPerStep <= 0 || c.FeatureSize <= 0 || c.BitDepth <= 0 || c.Steps <= 0:
		return fmt.Errorf("sim: bad workload parameters")
	}
	return nil
}

// BytesPerToken returns b·H/8 plus the encoding's per-row scale
// overhead — the one-way payload of one routed token copy.
func (c *Config) BytesPerToken() float64 {
	return placement.RowBytes(c.BitDepth, c.FeatureSize, c.Encoding)
}

// RoutingsPerStep returns tokens·topK, the routed token copies per block
// per step.
func (c *Config) RoutingsPerStep() int { return c.TokensPerStep * c.TopK }

// PlacementProblem builds the placement.Problem for this configuration
// from a measured probability matrix.
func (c *Config) PlacementProblem(P [][]float64) *placement.Problem {
	return &placement.Problem{
		Workers:         c.Topo.NumWorkers(),
		Layers:          c.Layers,
		Experts:         c.Experts,
		P:               P,
		Bandwidth:       c.Topo.Bandwidths(),
		Capacity:        c.Topo.Capacities(),
		RoutingsPerStep: float64(c.RoutingsPerStep()),
		BytesPerToken:   c.BytesPerToken(),
		WorkerNode:      c.Topo.WorkerNodes(),
		MasterNode:      c.Topo.MasterNode,
	}
}

// Result is one simulated run.
type Result struct {
	Strategy string
	// TrafficMB is the per-step external (cross-node) traffic per node
	// in MB — Fig. 5's y-axis.
	TrafficMB *obs.Series
	// StepSec is the per-step wall-clock time in seconds — Fig. 6's
	// y-axis.
	StepSec *obs.Series
	// TotalCrossBytes accumulates external traffic over the whole run.
	TotalCrossBytes float64
}

// AvgTrafficMB returns the mean of the per-step traffic series.
func (r *Result) AvgTrafficMB() float64 { return r.TrafficMB.Summarize().Mean }

// AvgStepSec returns the mean of the per-step time series.
func (r *Result) AvgStepSec() float64 { return r.StepSec.Summarize().Mean }

// RunVela simulates cfg.Steps fine-tuning steps of the VELA framework
// with the given expert assignment, driven by the workload generator.
func RunVela(cfg Config, gen *workload.Generator, assign *placement.Assignment, name string) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Strategy:  name,
		TrafficMB: &obs.Series{Name: name},
		StepSec:   &obs.Series{Name: name},
	}
	// The cost model's topology terms; P plays no part in pricing sampled
	// counts.
	prob := cfg.PlacementProblem(nil)
	nNodes := float64(cfg.Topo.NumNodes())
	toWorker := make([]float64, prob.Workers)

	for s := 0; s < cfg.Steps; s++ {
		counts := gen.Step()
		var stepCross, stepTime float64
		for l := 0; l < cfg.Layers; l++ {
			clear(toWorker)
			for e, c := range counts[l] {
				toWorker[assign.Worker[l][e]] += float64(c)
			}
			// Four transfer phases per block, each as long as its slowest
			// worker's, no synchronization barrier (one-to-all).
			comm, _ := prob.BlockComm(toWorker, &stepCross)
			// Expert compute overlaps across workers; the busiest one sets it.
			stepTime += comm + slices.Max(toWorker)*cfg.ExpertSecPerToken
		}
		stepTime += cfg.BackboneSecPerStep
		res.TrafficMB.Append(stepCross / nNodes / 1e6)
		res.StepSec.Append(stepTime)
		res.TotalCrossBytes += stepCross
	}
	return res, nil
}

// runEP simulates conventional expert parallelism: per-block e%N expert
// layout, input tokens sharded evenly across all devices, four
// synchronized all-to-all exchanges per block, and a terminal gradient
// all-reduce for the replicated trainable parameters.
func runEP(cfg Config, gen *workload.Generator) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Strategy:  "ep",
		TrafficMB: &obs.Series{Name: "ep"},
		StepSec:   &obs.Series{Name: "ep"},
	}
	nWorkers := cfg.Topo.NumWorkers()
	nNodes := float64(cfg.Topo.NumNodes())
	bpt := cfg.BytesPerToken()
	nodes := cfg.Topo.WorkerNodes()

	// Device d holds 1/N of the token shard; a routed copy to expert on
	// device t comes from a uniformly random source device.
	devFrac := 1.0 / float64(nWorkers)
	// Fraction of sources on the same node as a given device (including
	// itself — those transfers are intra-node or local).
	sameNode := make([]float64, nWorkers)
	for d := 0; d < nWorkers; d++ {
		cnt := 0
		for s := 0; s < nWorkers; s++ {
			if nodes[s] == nodes[d] {
				cnt++
			}
		}
		sameNode[d] = float64(cnt) * devFrac
	}

	for s := 0; s < cfg.Steps; s++ {
		counts := gen.Step()
		var stepCross, stepTime float64
		for l := 0; l < cfg.Layers; l++ {
			// Tokens received by each device (its experts' routings).
			recv := make([]float64, nWorkers)
			for e, c := range counts[l] {
				recv[e%nWorkers] += float64(c) // placement.EP's layout, no capacity check
			}
			var phase, compute float64
			for d := 0; d < nWorkers; d++ {
				interBytes := recv[d] * (1 - sameNode[d]) * bpt
				intraBytes := recv[d] * (sameNode[d] - devFrac) * bpt
				t := interBytes/cfg.Topo.InterBW + intraBytes/cfg.Topo.IntraBW
				if t > phase {
					phase = t
				}
				if t := recv[d] * cfg.ExpertSecPerToken; t > compute {
					compute = t
				}
				stepCross += 4 * interBytes
			}
			// 4 all-to-all exchanges, each preceded by the size
			// synchronization barrier.
			stepTime += 4*(cfg.EPSyncSec+phase) + compute
		}
		// Gradient all-reduce of replicated trainable parameters: ring
		// all-reduce moves ~2× the parameter bytes, bottlenecked by the
		// inter-node links.
		gradBytes := 2 * cfg.EPGradSyncBytes
		stepTime += gradBytes / cfg.Topo.InterBW
		stepCross += gradBytes
		stepTime += cfg.BackboneSecPerStep
		res.TrafficMB.Append(stepCross / nNodes / 1e6)
		res.StepSec.Append(stepTime)
		res.TotalCrossBytes += stepCross
	}
	return res, nil
}

// RunAll simulates the full Fig. 5/6 strategy set for one profile: EP,
// Sequential, Random, and VELA's locality-aware LP placement (solved once
// on the generator's base matrix, exactly like the paper's pre-run
// profiling pass).
func RunAll(cfg Config, profile workload.Profile) (map[string]*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prob := cfg.PlacementProblem(profile.Matrix())
	strategies := []struct {
		name  string
		place func() (*placement.Assignment, error)
	}{
		{"sequential", func() (*placement.Assignment, error) { return placement.Sequential{}.Place(prob) }},
		{"random", func() (*placement.Assignment, error) { return placement.Random{Seed: 7}.Place(prob) }},
		{"vela", func() (*placement.Assignment, error) { return placement.LocalityLP{}.Place(prob) }},
	}
	out := make(map[string]*Result, len(strategies)+1)

	epGen := workload.NewGenerator(profile, cfg.RoutingsPerStep())
	ep, err := runEP(cfg, epGen)
	if err != nil {
		return nil, err
	}
	out["ep"] = ep

	for _, s := range strategies {
		a, err := s.place()
		if err != nil {
			return nil, fmt.Errorf("sim: %s placement: %w", s.name, err)
		}
		gen := workload.NewGenerator(profile, cfg.RoutingsPerStep())
		r, err := RunVela(cfg, gen, a, s.name)
		if err != nil {
			return nil, err
		}
		out[s.name] = r
	}
	return out, nil
}
