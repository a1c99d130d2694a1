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
// A master is assembled one way, whatever carries its frames. Attach
// wires a model to any []transport.Conn (chan pipes, TCP, a
// transport.Faulty wrapper): it solves the placement, builds the executor
// with its counter table, and sends nothing. System.Distribute ships the
// experts; a restarted run calls System.Resume (runstate.go) instead.
// Supervisor, ReplaceController and CheckpointEvery build the
// step-boundary handlers; System.Finetuner's OnStep is
// System.StepBoundary, the one statement of their order, which ends by
// holding the boundary as a checkpoint.RunState. Retry is resume: with a
// supervisor, a failure anywhere in step s restores the held state of
// boundary s−1 through the restore Resume pours a stored one through.
// Deploy is Attach + Distribute over in-process workers.
//
// cmd/velamaster and this package's failover, crash-resume, shift and
// Fig. 5 tests assemble through these, and so does every rank of the
// paper's baseline: DeployEP (ep.go) is R Attach'ed masters sharing
// workers. bench/, which times each piece separately, hand-wires
// broker.NewExecutor on purpose.
package core

import (
	"fmt"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/data"
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

// Options configures Attach and Deploy.
type Options struct {
	// Topo describes the (simulated) cluster, one device per worker
	// connection. Required.
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
	// Obs, when non-nil, instruments the whole deployment: the broker's
	// exchange lifecycle, Deploy's in-process workers' compute timing, the
	// model's gate routing (P-drift baseline comes from Stats), and the
	// placement objective's predicted comm time. System.Finetuner wires
	// the same handle into the training loop.
	Obs *obs.Handle
}

// System is an assembled VELA master: backbone in this process, experts
// on Expert Manager workers behind the broker, every byte counted.
type System struct {
	Model *moe.Model
	Topo  cluster.Topology
	// Exec is the broker executor: Exec.Assignment() is the live
	// placement (failovers, migrations and Resume all change it), and
	// Exec.Counters the deployment's runtime counter table (always live,
	// with or without Obs).
	Exec *broker.Executor
	// Obs is the deployment's observability handle (nil when Options.Obs
	// was not set).
	Obs *obs.Handle
	// Problem is the placement problem the deployment solved, with the
	// resolved cost model. Supervisor and ReplaceController share this
	// pointer: a controller re-solve that migrates or re-anchors writes
	// the P it solved over into it, and a restore writes the restored
	// drift baseline's, so a failover repairs over the P the live layout
	// was solved for.
	Problem *placement.Problem
	// Spec is the deployed experts' wire architecture; its PayloadBytes
	// feeds the re-placement controller's migration-cost model.
	Spec broker.ExpertSpec

	// Step-boundary handlers built so far, and Deploy's in-process workers
	// (an empty deployment when the connections are the caller's).
	sup    *broker.Supervisor
	ctrl   *replace.Controller
	local  *broker.LocalDeployment
	closed bool
	// CheckpointEvery's writer, interval and seeds.
	ckpt      *checkpoint.AsyncWriter
	ckptEvery int
	ckptSeeds []int64
	// ft is the run System.Finetuner built; held is the restore point of
	// its next step, the last boundary captured; onWorkers says
	// Distribute or Resume has put the experts on the workers.
	ft        *trainer.Finetuner
	held      *checkpoint.RunState
	onWorkers bool
}

// placementProblem builds the §IV-B optimization problem from a topology
// and measured statistics. BytesPerToken follows the resolved bit depth
// plus the encoding's per-row metadata (int8 ships one absmax scale per
// token row, which the objective must count like the wire does).
func placementProblem(topo cluster.Topology, stats *moe.AccessStats, routingsPerStep float64, featureSize, bitDepth int, enc wire.Encoding) *placement.Problem {
	return &placement.Problem{
		Workers:         topo.NumWorkers(),
		Layers:          stats.Layers,
		Experts:         stats.Experts,
		P:               stats.Prob(),
		Bandwidth:       topo.Bandwidths(),
		Capacity:        topo.Capacities(),
		RoutingsPerStep: routingsPerStep,
		BytesPerToken:   placement.RowBytes(bitDepth, featureSize, enc),
		WorkerNode:      topo.WorkerNodes(),
		MasterNode:      topo.MasterNode,
	}
}

// Attach assembles a master over the caller's worker connections, one
// per Topo device: it resolves the cost model once, solves the placement,
// builds the executor with its counter table, and rewires the model's
// MoE blocks through the Expert Broker. It starts nothing and
// sends nothing: the connections stay the caller's to close, and the
// experts reach the workers through Distribute or Resume. The model is
// typically prepared (trainer.PrepareForFinetune) and profiled already.
func Attach(model *moe.Model, conns []transport.Conn, opts Options) (*System, error) {
	if err := opts.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	workers := opts.Topo.NumWorkers()
	if len(conns) != workers {
		return nil, fmt.Errorf("core: %d worker connections for a %d-device topology", len(conns), workers)
	}
	if opts.Stats == nil {
		return nil, fmt.Errorf("core: Options.Stats is required (run trainer.Profile first)")
	}
	cfg := model.Cfg
	strategy := opts.Strategy
	if strategy == nil {
		strategy = placement.LocalityLP{}
	}
	routings, bitDepth := resolveCostModel(opts.RoutingsPerStep, opts.BitDepth, cfg.TopK, opts.WireEncoding)
	prob := placementProblem(opts.Topo, opts.Stats, routings, cfg.D, bitDepth, opts.WireEncoding)
	assign, err := strategy.Place(prob)
	if err != nil {
		return nil, fmt.Errorf("core: placing experts with %s: %w", strategy.Name(), err)
	}

	crossNode := make([]bool, workers)
	for n := range crossNode {
		crossNode[n] = opts.Topo.CrossNode(n)
	}
	exec := broker.NewExecutor(conns, assign)
	exec.Obs = opts.Obs
	exec.Counters = obs.NewCounters(crossNode)
	exec.BytesPerValue = float64(bitDepth) / 8
	exec.WireEncoding = opts.WireEncoding
	model.SetExecutor(exec)

	s := &System{
		Model:   model,
		Topo:    opts.Topo,
		Exec:    exec,
		Obs:     opts.Obs,
		Problem: prob,
		Spec: broker.ExpertSpec{
			D: cfg.D, Hidden: cfg.Hidden,
			LoRARank: opts.LoRA.Rank, LoRAAlpha: opts.LoRA.Alpha,
		},
		local: &broker.LocalDeployment{},
	}
	model.SetObs(opts.Obs)
	if opts.Obs != nil {
		// The drift monitor's reference: P is the baseline, the
		// objective's value for the assignment the predicted-comm gauge.
		opts.Obs.Drift.SetBaseline(prob.P)
		if m, err := placement.Evaluate(prob, assign); err == nil {
			opts.Obs.Drift.SetPredictedComm(m.CommTime)
		}
	}
	return s, nil
}

// Distribute detaches the experts of grid onto the workers per the
// solved placement. After it, the grid's trainable parameters are stale —
// the authoritative ones live on the workers — while its frozen ones stay
// in use, unmodified: the executor keeps views of them as the base that
// snapshots, migrations and failovers are installed over.
func (s *System) Distribute(grid [][]*moe.Expert) error {
	if err := s.Exec.Distribute(grid, s.Spec); err != nil {
		return fmt.Errorf("core: distributing experts: %w", err)
	}
	s.onWorkers = true
	return s.holdFirst()
}

// Deploy is Attach + Distribute over freshly started in-process workers
// (chan pipes), one per Topo device; Close shuts them down.
func Deploy(model *moe.Model, grid [][]*moe.Expert, opts Options) (*System, error) {
	wcfg := broker.DefaultWorkerConfig()
	// In-process workers share the master's handle, so its /metrics
	// carries real per-worker compute histograms.
	wcfg.Obs = opts.Obs
	dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), wcfg)
	s, err := Attach(model, dep.Conns, opts)
	if err == nil {
		s.local = dep
		err = s.Distribute(grid)
	}
	if err != nil {
		dep.Close()
		return nil, err
	}
	return s, nil
}

// Supervisor builds the system's failure handler, wired to re-solve
// against the deployment's placement problem and to refresh the obs
// predicted-comm gauge after a failover. StepBoundary, Finetuner and
// MetricsSource use it; its hooks and Start stay the caller's.
func (s *System) Supervisor(cfg broker.SupervisorConfig) *broker.Supervisor {
	s.sup = broker.NewSupervisor(s.Exec, s.Problem, cfg)
	s.sup.Obs = s.Obs
	return s.sup
}

// ReplaceController builds the online re-placement controller over this
// deployment: it watches the system's drift monitor and, via the
// executor, migrates experts live when the placement goes stale. An
// unset ExpertBytes defaults to the deployed expert spec's wire payload.
// The system remembers it and StepBoundary runs it after the snapshot.
func (s *System) ReplaceController(cfg replace.Config) (*replace.Controller, error) {
	if cfg.ExpertBytes <= 0 {
		cfg.ExpertBytes = s.Spec.PayloadBytes()
	}
	var err error
	s.ctrl, err = replace.New(s.Problem, s.Obs, s.Exec.Counters, s.Exec, cfg)
	return s.ctrl, err
}

// CheckpointEvery hands every every-th held boundary (<= 1: every one),
// stamped with the run's prelude seeds (Resume verifies them), to w: a
// best-effort write, skipped while the previous one is in flight.
func (s *System) CheckpointEvery(every int, seeds []int64, w *checkpoint.AsyncWriter) {
	s.ckpt, s.ckptEvery, s.ckptSeeds = w, every, seeds
}

// StepBoundary is the one statement of what happens between two steps;
// handlers that were never built are skipped. The order is the safety
// rule: the expert snapshot comes BEFORE the controller may migrate, so
// every re-layout is preceded by a restore point and a failover right
// after a migration restores post-migration state. Parked worker rejoins
// are admitted next (nudging the controller: with the capacity back, a
// re-solve may migrate experts home under the usual cost gate), then the
// controller runs, and the boundary is held last (hold), so the held
// state — and the run checkpoint written from it — records its final
// assignment, and a failure anywhere before leaves boundary step−1 held
// for the retry. Callers that add a fault-arm, a trace drain or a stop
// check wrap this; they do not re-state it.
func (s *System) StepBoundary(step int) error {
	if s.sup != nil {
		if err := s.sup.Checkpoint(step); err != nil {
			return err
		}
		if admitted := s.sup.AdmitRejoins(); len(admitted) > 0 && s.ctrl != nil {
			s.ctrl.RequestResolve(fmt.Sprintf("worker rejoin %v", admitted))
		}
	}
	if s.ctrl != nil {
		if err := s.ctrl.OnStep(step); err != nil {
			return err
		}
	}
	return s.hold(step)
}

// Finetuner returns the system's run: a trainer.Finetuner over src whose
// expert optimizer control flows through the broker and whose OnStep is
// StepBoundary. With a supervisor (build it first) its Recover is the
// system's retry, and src must be a data.CursorSource, or a retried step
// would re-draw another batch. With the experts on the workers it takes
// the first step's restore point, whose snapshot round is the error it
// can return. The backbone optimizer is the paper's AdamW; callers
// wanting another replace Opt over ft.Backbone.
func (s *System) Finetuner(src trainer.BatchSource) (*trainer.Finetuner, error) {
	backbone := nn.CollectTrainable(s.Model.Params())
	ft := &trainer.Finetuner{
		Model:      s.Model,
		Backbone:   backbone,
		Opt:        nn.NewAdamW(backbone, nn.PaperAdamWConfig()),
		Batcher:    src,
		ExpertZero: s.Exec.ZeroGrads,
		ExpertStep: s.Exec.Step,
		OnStep:     s.StepBoundary,
		Obs:        s.Obs,
	}
	if s.sup != nil {
		if _, ok := src.(data.CursorSource); !ok {
			return nil, fmt.Errorf("core: a supervised run re-draws a retried step's batch: %T is not a data.CursorSource", src)
		}
		ft.Recover = s.retry
	}
	s.ft = ft
	return ft, s.holdFirst()
}

// MetricsSource bundles the system's handle and counter table for the obs
// scrape endpoints (obs.Serve / obs.NewMux).
func (s *System) MetricsSource() obs.Source {
	src := obs.Source{
		Handle:   s.Obs,
		Counters: s.Exec.Counters,
		Alive: func() []bool {
			alive := make([]bool, s.Exec.NumWorkers())
			for n := range alive {
				alive[n] = s.Exec.Alive(n)
			}
			return alive
		},
	}
	if s.sup != nil {
		src.Rejoining = s.sup.PendingRejoins
	}
	return src
}

// Close shuts the workers down cleanly and waits for those Deploy
// started. Safe to call more than once.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.Exec.Shutdown(); err != nil {
		s.local.Close()
		return fmt.Errorf("core: shutdown: %w", err)
	}
	return s.local.Wait()
}
