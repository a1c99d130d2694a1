// Package core is the top-level facade of the VELA reproduction: it wires
// the pieces — MoE model backbone, detached experts, Expert Broker,
// locality profiling, placement optimization, and traffic accounting —
// into the workflow the paper describes:
//
//  1. load (here: manufacture) a pre-trained MoE checkpoint;
//  2. pass the fine-tuning dataset through the model once to measure the
//     expert access-probability matrix P;
//  3. solve the locality-aware placement LP for the cluster topology;
//  4. detach the experts onto Expert Manager workers per the placement;
//  5. fine-tune with LoRA through the broker, counting every byte.
//
// Examples and cmd/ binaries build on this package; the underlying pieces
// remain usable à la carte.
package core

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultBitDepth is the feature bit depth of the paper's fine-tuning
// setup (16-bit activations). Every consumer of the cost model — the
// placement objective's BytesPerToken, the executor's logical byte
// accounting, and the re-placement controller — resolves through
// resolveCostModel so they can never disagree on the default.
const DefaultBitDepth = 16

// resolveCostModel resolves the Options' cost-model parameters to their
// effective values: the paper's batch·seqLen·topK routings per step, and
// a bit depth that follows the actual wire encoding when one is selected
// (falling back to DefaultBitDepth for the fp64 default, which models the
// paper's 16-bit exchange). An explicitly set bitDepth always wins, so
// what-if analyses can still decouple the model from the wire.
func resolveCostModel(routingsPerStep float64, bitDepth, topK int, enc wire.Encoding) (float64, int) {
	if routingsPerStep <= 0 {
		routingsPerStep = 8 * 224 * float64(topK)
	}
	if bitDepth == 0 {
		if enc != wire.EncFP64 {
			bitDepth = enc.BitsPerValue()
		} else {
			bitDepth = DefaultBitDepth
		}
	}
	return routingsPerStep, bitDepth
}

// Options configures Deploy.
type Options struct {
	// Topo describes the (simulated) cluster; one worker is launched per
	// device. Required.
	Topo cluster.Topology
	// Strategy chooses the expert placement; defaults to the paper's
	// locality-aware LP when nil.
	Strategy placement.Strategy
	// Stats is the measured access statistics driving the placement.
	// Required.
	Stats *moe.AccessStats
	// RoutingsPerStep and BitDepth parameterize the placement cost
	// model; they default to the paper's fine-tuning setup (batch 8,
	// top-k routings) and, when BitDepth is zero, to the bit depth of the
	// selected WireEncoding (16-bit features for the fp64 default).
	RoutingsPerStep float64
	BitDepth        int
	// WireEncoding selects the on-wire representation of exchanged
	// activations and gradients (fp64 exact, fp16, or int8); it drives
	// both the executor and, via resolveCostModel, the placement
	// objective's BytesPerToken — the wire and the cost model can never
	// disagree.
	WireEncoding wire.Encoding
	// LoRA carried by the experts (needed to rebuild them worker-side).
	LoRA trainer.LoRAConfig
	// Worker selects the Expert Manager optimizer configuration;
	// defaults to the paper's AdamW.
	Worker *broker.WorkerConfig
	// Obs, when non-nil, instruments the whole deployment: the broker's
	// exchange lifecycle, the in-process workers' compute timing, the
	// model's gate routing (P-drift baseline comes from Stats), and the
	// placement objective's predicted comm time. System.Finetuner wires
	// the same handle into the training loop.
	Obs *obs.Handle
}

// System is a deployed VELA instance: backbone on the "master" (this
// process), experts on in-process Expert Manager workers connected
// through the broker, with byte-level traffic accounting.
type System struct {
	Model      *moe.Model
	Topo       cluster.Topology
	Assignment *placement.Assignment
	Exec       *broker.Executor
	Traffic    *metrics.Traffic
	// Obs is the deployment's observability handle (nil when Options.Obs
	// was not set).
	Obs *obs.Handle
	// Problem is the placement problem the deployment solved (nil when
	// DeployWithAssignment ran without Stats). Rebalance refreshes it;
	// Supervisor and ReplaceController re-solve against it.
	Problem *placement.Problem
	// Spec is the deployed experts' wire architecture; its PayloadBytes
	// feeds the re-placement controller's migration-cost model.
	Spec broker.ExpertSpec
	// RoutingsPerStep, BitDepth and WireEncoding are the resolved
	// cost-model parameters every later re-solve reuses.
	RoutingsPerStep float64
	BitDepth        int
	WireEncoding    wire.Encoding

	deployment *broker.LocalDeployment
	closed     bool
}

// PlacementProblem builds the §IV-B optimization problem from a topology
// and measured statistics. BytesPerToken follows the resolved bit depth
// plus the encoding's per-row metadata (int8 ships one absmax scale per
// token row, which the objective must count like the wire does).
func PlacementProblem(topo cluster.Topology, stats *moe.AccessStats, routingsPerStep float64, featureSize, bitDepth int, enc wire.Encoding) *placement.Problem {
	return &placement.Problem{
		Workers:         topo.NumWorkers(),
		Layers:          stats.Layers,
		Experts:         stats.Experts,
		P:               stats.Prob(),
		Bandwidth:       topo.Bandwidths(),
		Capacity:        topo.Capacities(),
		RoutingsPerStep: routingsPerStep,
		BytesPerToken:   float64(bitDepth)*float64(featureSize)/8 + float64(enc.ScaleBytesPerRow()),
		WorkerNode:      topo.WorkerNodes(),
		MasterNode:      topo.MasterNode,
	}
}

// Deploy detaches the experts of (model, grid) onto freshly started
// in-process workers according to the chosen placement strategy, and
// rewires the model's MoE blocks through the Expert Broker.
//
// The model and grid are typically a pre-trained checkpoint already
// prepared for fine-tuning (trainer.PrepareForFinetune). After Deploy,
// the local grid objects are stale: the authoritative expert weights live
// on the workers.
func Deploy(model *moe.Model, grid [][]*moe.Expert, opts Options) (*System, error) {
	if err := opts.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg := model.Cfg
	strategy := opts.Strategy
	if strategy == nil {
		strategy = placement.LocalityLP{}
	}
	if opts.Stats == nil {
		return nil, fmt.Errorf("core: Options.Stats is required (run trainer.Profile first)")
	}
	routings, bitDepth := resolveCostModel(opts.RoutingsPerStep, opts.BitDepth, cfg.TopK, opts.WireEncoding)
	prob := PlacementProblem(opts.Topo, opts.Stats, routings, cfg.D, bitDepth, opts.WireEncoding)
	assign, err := strategy.Place(prob)
	if err != nil {
		return nil, fmt.Errorf("core: placing experts with %s: %w", strategy.Name(), err)
	}
	return DeployWithAssignment(model, grid, assign, opts)
}

// DeployWithAssignment is Deploy with a pre-computed placement.
func DeployWithAssignment(model *moe.Model, grid [][]*moe.Expert, assign *placement.Assignment, opts Options) (*System, error) {
	wcfg := broker.DefaultWorkerConfig()
	if opts.Worker != nil {
		wcfg = *opts.Worker
	}
	if wcfg.Obs == nil {
		// In-process workers share the master's handle, so its /metrics
		// carries real per-worker compute histograms.
		wcfg.Obs = opts.Obs
	}
	routings, bitDepth := resolveCostModel(opts.RoutingsPerStep, opts.BitDepth, model.Cfg.TopK, opts.WireEncoding)
	dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), wcfg)
	exec := broker.NewExecutor(dep.Conns, assign)
	exec.Obs = opts.Obs
	crossNode := make([]bool, opts.Topo.NumWorkers())
	for n := range crossNode {
		crossNode[n] = opts.Topo.CrossNode(n)
	}
	traffic := metrics.NewTraffic(opts.Topo.NumWorkers(), crossNode)
	exec.Traffic = traffic
	// One resolved bit depth drives both the traffic accounting and the
	// placement objective (previously the executor silently kept its own
	// 16-bit default while the objective resolved independently).
	exec.BytesPerValue = float64(bitDepth) / 8
	exec.WireEncoding = opts.WireEncoding
	spec := broker.ExpertSpec{
		D: model.Cfg.D, Hidden: model.Cfg.Hidden,
		LoRARank: opts.LoRA.Rank, LoRAAlpha: opts.LoRA.Alpha,
	}
	if err := exec.Distribute(grid, spec); err != nil {
		dep.Close()
		return nil, fmt.Errorf("core: distributing experts: %w", err)
	}
	model.SetExecutor(exec)
	var prob *placement.Problem
	if opts.Stats != nil {
		prob = PlacementProblem(opts.Topo, opts.Stats, routings, model.Cfg.D, bitDepth, opts.WireEncoding)
	}
	if opts.Obs != nil {
		model.SetObs(opts.Obs)
		if prob != nil {
			// The placement-time P is the drift baseline; the objective's
			// value for this assignment is the predicted comm gauge.
			opts.Obs.Drift.SetBaseline(prob.P)
			if m, err := placement.Evaluate(prob, assign); err == nil {
				opts.Obs.Drift.SetPredictedComm(m.CommTime)
			}
		}
	}
	return &System{
		Model:           model,
		Topo:            opts.Topo,
		Assignment:      assign,
		Exec:            exec,
		Traffic:         traffic,
		Obs:             opts.Obs,
		Problem:         prob,
		Spec:            spec,
		RoutingsPerStep: routings,
		BitDepth:        bitDepth,
		WireEncoding:    opts.WireEncoding,
		deployment:      dep,
	}, nil
}

// Finetuner returns a trainer.Finetuner whose expert optimizer control
// flows through the broker to the workers.
func (s *System) Finetuner(corpus *data.Corpus, batch, seqLen int, seed int64) *trainer.Finetuner {
	backbone := nn.CollectTrainable(s.Model.Params())
	return &trainer.Finetuner{
		Model:      s.Model,
		Backbone:   backbone,
		Opt:        nn.NewAdamW(backbone, nn.PaperAdamWConfig()),
		Batcher:    data.NewBatcher(corpus, batch, seqLen, seed),
		ExpertZero: s.Exec.ZeroGrads,
		ExpertStep: s.Exec.Step,
		Obs:        s.Obs,
	}
}

// MetricsSource bundles the system's meters for the obs scrape endpoints
// (obs.Serve / obs.NewMux).
func (s *System) MetricsSource() obs.Source {
	return obs.Source{
		Handle:   s.Obs,
		Traffic:  s.Traffic,
		Recovery: s.Exec.Recovery,
		Alive: func() []bool {
			mask := s.Exec.DeadMask()
			alive := make([]bool, len(mask))
			for n, dead := range mask {
				alive[n] = !dead
			}
			return alive
		},
	}
}

// Workers exposes the in-process Expert Managers (diagnostics only).
func (s *System) Workers() []*broker.Worker { return s.deployment.Workers }

// Conns exposes the master-side connections (diagnostics only).
func (s *System) Conns() []transport.Conn { return s.deployment.Conns }

// CrossNodeBytes reports the external traffic accumulated so far.
func (s *System) CrossNodeBytes() int64 { return s.Traffic.CrossNodeBytes() }

// Close shuts the workers down cleanly. Safe to call more than once.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.Exec.Shutdown(); err != nil {
		s.deployment.Close()
		return fmt.Errorf("core: shutdown: %w", err)
	}
	return s.deployment.Wait()
}

// Rebalance re-solves the placement from fresh access statistics and
// migrates every expert whose optimal worker changed — VELA's runtime
// flexibility. It returns the number of experts moved. Expert optimizer
// moments do not travel with the weights (Adam state restarts on the new
// host). Zero routingsPerStep/bitDepth reuse the deployment's resolved
// values.
//
// After a successful rebalance the drift monitor is re-anchored: the
// fresh stats become the baseline (the placement now reflects them, so
// accumulated drift is stale) and the predicted-comm gauge becomes the
// new assignment's objective value.
func (s *System) Rebalance(stats *moe.AccessStats, strategy placement.Strategy, routingsPerStep float64, bitDepth int) (int, error) {
	if strategy == nil {
		strategy = placement.LocalityLP{}
	}
	if routingsPerStep <= 0 {
		routingsPerStep = s.RoutingsPerStep
	}
	if bitDepth == 0 {
		bitDepth = s.BitDepth
	}
	routingsPerStep, bitDepth = resolveCostModel(routingsPerStep, bitDepth, s.Model.Cfg.TopK, s.WireEncoding)
	prob := PlacementProblem(s.Topo, stats, routingsPerStep, s.Model.Cfg.D, bitDepth, s.WireEncoding)
	next, err := strategy.Place(prob)
	if err != nil {
		return 0, fmt.Errorf("core: rebalance placement: %w", err)
	}
	moved, err := s.Exec.Rebalance(next)
	if err != nil {
		return moved, fmt.Errorf("core: rebalance migration: %w", err)
	}
	s.Assignment = s.Exec.Assignment()
	s.Problem = prob
	if s.Obs != nil {
		s.Obs.Drift.SetBaseline(prob.P)
		if m, err := placement.Evaluate(prob, s.Assignment); err == nil {
			s.Obs.Drift.SetPredictedComm(m.CommTime)
		}
	}
	return moved, nil
}

// Supervisor builds the system's failure handler, wired to re-solve
// against the deployment's placement problem and to refresh the obs
// predicted-comm gauge after a failover.
func (s *System) Supervisor(cfg broker.SupervisorConfig) (*broker.Supervisor, error) {
	if s.Problem == nil {
		return nil, fmt.Errorf("core: supervisor needs the deployment's placement problem (Deploy with Options.Stats)")
	}
	sup := broker.NewSupervisor(s.Exec, s.Problem, cfg)
	sup.Obs = s.Obs
	return sup, nil
}

// ReplaceController builds the online re-placement controller over this
// deployment: it watches the system's drift monitor and, via the
// executor, migrates experts live when the placement goes stale. An
// unset ExpertBytes defaults to the deployed expert spec's wire payload.
// Wire its OnStep after the supervisor's Checkpoint in the trainer's
// step hook, so every migration is preceded by a fresh snapshot.
func (s *System) ReplaceController(cfg replace.Config) (*replace.Controller, error) {
	if s.Problem == nil {
		return nil, fmt.Errorf("core: re-placement controller needs the deployment's placement problem (Deploy with Options.Stats)")
	}
	if cfg.ExpertBytes <= 0 {
		cfg.ExpertBytes = s.Spec.PayloadBytes()
	}
	return replace.New(s.Problem, s.Obs, s.Exec, cfg)
}
