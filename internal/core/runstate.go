package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/trainer"
)

// This file is the run-level checkpoint glue: it knows how to walk a
// deployed VELA system — backbone optimizer, executor, supervisor, data
// cursor, drift monitor, replace controller, loss series — and flatten
// it into a checkpoint.RunState at a step boundary (CaptureRun), and how
// to pour a loaded RunState back into a freshly reconstructed system so
// the resumed run is bit-identical to an uninterrupted one (RestoreRun).
// RunCheckpointer is the step-boundary handler that does the former
// periodically through a checkpoint.AsyncWriter; System.Resume is the
// whole restart sequence around the latter.

// RunCapture names every piece of live state that participates in a
// run-level checkpoint. Optional pieces (Sup, Opt, Drift, Ctrl, Seeds)
// may be nil/empty; their sections are simply absent from the state.
type RunCapture struct {
	// Backbone is the master-side trainable parameter list, in the
	// deterministic nn.CollectTrainable order. Required.
	Backbone []*nn.Param
	// Opt is the backbone AdamW; nil means no moments are captured
	// (e.g. an SGD run).
	Opt *nn.AdamW
	// Exec is the broker executor. Required.
	Exec *broker.Executor
	// Sup, when set, supplies the expert snapshot the supervisor already
	// pulled at this boundary (Checkpoint runs earlier in the same
	// OnStep); when its latest snapshot is stale or absent, CaptureRun
	// falls back to Exec.SnapshotExperts.
	Sup *broker.Supervisor
	// Cursor and Seek expose the data source's replayable position
	// (data.CursorSource methods of the run's batcher).
	Cursor func() []int64
	Seek   func([]int64) error
	// Drift is the placement-fidelity monitor; Ctrl the re-placement
	// controller.
	Drift *obs.DriftMonitor
	Ctrl  *replace.Controller
	// Losses is the fine-tuner's loss series (the completed-step count
	// and the trajectory a resume must extend bit-identically).
	Losses *obs.Series
	// Seeds records the run's RNG seeds for resume-time verification.
	Seeds []int64
}

// stateTensorOf flattens a parameter-sized tensor into a deep-copied
// StateTensor (1×N for non-2D shapes — restore only needs the length).
func stateTensorOf(data []float64, rows, cols int) checkpoint.StateTensor {
	return checkpoint.StateTensor{Rows: rows, Cols: cols, Data: append([]float64(nil), data...)}
}

func paramShape(p *nn.Param) (rows, cols int) {
	if p.Value.Dims() == 2 {
		return p.Value.Rows(), p.Value.Cols()
	}
	return 1, p.Value.Len()
}

// CaptureRun flattens the live system into a RunState at the boundary
// after trainer step `step` (0-based). Everything mutable is deep-copied
// so the AsyncWriter can serialize it while training continues; the
// expert snapshot is shared, not copied, because the supervisor replaces
// its latest snapshot wholesale and never mutates entries in place. Its
// entries are the broker's delta entries — trainable weights and moments,
// not the frozen weights — so a generation is a fraction of the model and
// loads only onto the grid it names (broker/codec.go).
func CaptureRun(step int, c *RunCapture) (*checkpoint.RunState, error) {
	rs := &checkpoint.RunState{
		Step:  step + 1,
		Seeds: append([]int64(nil), c.Seeds...),
	}
	if c.Losses != nil {
		rs.Step = c.Losses.Len()
		rs.Losses = append([]float64(nil), c.Losses.Values...)
	}
	for _, p := range c.Backbone {
		rows, cols := paramShape(p)
		rs.Backbone = append(rs.Backbone, checkpoint.NamedTensor{
			Name:        p.Name,
			StateTensor: stateTensorOf(p.Value.Data, rows, cols),
		})
	}
	if c.Opt != nil {
		rs.OptStep = c.Opt.StepCount()
		for _, p := range c.Backbone {
			m, v := c.Opt.Moments(p)
			if m == nil || v == nil {
				return nil, fmt.Errorf("core: capture: optimizer does not track %q", p.Name)
			}
			rows, cols := paramShape(p)
			rs.OptM = append(rs.OptM, stateTensorOf(m.Data, rows, cols))
			rs.OptV = append(rs.OptV, stateTensorOf(v.Data, rows, cols))
		}
	}
	if c.Sup != nil {
		if latest := c.Sup.Latest(); latest != nil && latest.Step == step {
			rs.Experts = latest
		}
	}
	if rs.Experts == nil {
		snap, err := c.Exec.SnapshotExperts(step)
		if err != nil {
			return nil, fmt.Errorf("core: capture: expert snapshot: %w", err)
		}
		rs.Experts = snap
	}
	if c.Cursor != nil {
		rs.Cursor = c.Cursor()
	}
	if assign := c.Exec.Assignment(); assign != nil {
		rs.Assignment = make([][]int, len(assign.Worker))
		for l, row := range assign.Worker {
			rs.Assignment[l] = append([]int(nil), row...)
		}
	}
	if c.Drift != nil {
		rs.Baseline = c.Drift.Baseline()
		rs.Phat = c.Drift.Phat()
		rs.PredictedComm, _ = c.Drift.CommGauges()
	}
	if c.Ctrl != nil {
		rs.HasReplace = true
		rs.ReplaceOver, rs.ReplaceCooldown = c.Ctrl.State()
	}
	return rs, nil
}

// RestoreRun pours a loaded RunState back into a freshly reconstructed
// system: backbone values and AdamW moments matched by parameter name,
// experts re-distributed onto the checkpointed
// assignment (each entry composed with the base registered on the
// executor; moments included), data cursor, drift state, and
// replace-controller counters. The caller is responsible for having
// rebuilt the deterministic prelude (model, LoRA attach, workers)
// identically; after RestoreRun the trainer resumes at StartStep =
// rs.Step and replays nothing.
//
// Resume invariants: the drift baseline is installed before the P̂
// estimate (SetBaseline resets P̂); the measured-comm EWMA is
// deliberately not restored — it tracks wall-clock behaviour of the
// current process and re-warms within a few steps.
func RestoreRun(rs *checkpoint.RunState, c *RunCapture) error {
	byName := make(map[string]*nn.Param, len(c.Backbone))
	for _, p := range c.Backbone {
		byName[p.Name] = p
	}
	if len(rs.Backbone) != len(c.Backbone) {
		return fmt.Errorf("core: restore: checkpoint has %d backbone tensors, model has %d",
			len(rs.Backbone), len(c.Backbone))
	}
	for i, nt := range rs.Backbone {
		p, ok := byName[nt.Name]
		if !ok {
			return fmt.Errorf("core: restore: checkpoint names unknown parameter %q", nt.Name)
		}
		if len(nt.Data) != p.Value.Len() {
			return fmt.Errorf("core: restore: parameter %q has %d values, checkpoint %d",
				nt.Name, p.Value.Len(), len(nt.Data))
		}
		copy(p.Value.Data, nt.Data)
		if c.Opt != nil && len(rs.OptM) == len(rs.Backbone) {
			if !c.Opt.SetMoments(p, rs.OptM[i].Data, rs.OptV[i].Data) {
				return fmt.Errorf("core: restore: optimizer rejected moments for %q", nt.Name)
			}
		}
	}
	if c.Opt != nil {
		c.Opt.SetStepCount(rs.OptStep)
	}
	if rs.Experts != nil && len(rs.Assignment) > 0 {
		assign := &placement.Assignment{Worker: rs.Assignment}
		if err := c.Exec.RestoreExperts(rs.Experts.Entries, assign); err != nil {
			return fmt.Errorf("core: restore: redistributing experts: %w", err)
		}
		c.Exec.SetAssignment(assign)
	}
	if len(rs.Cursor) > 0 {
		if c.Seek == nil {
			return fmt.Errorf("core: restore: checkpoint has a data cursor but no Seek is wired")
		}
		if err := c.Seek(rs.Cursor); err != nil {
			return fmt.Errorf("core: restore: data cursor: %w", err)
		}
	}
	if c.Drift != nil {
		if len(rs.Baseline) > 0 {
			c.Drift.SetBaseline(rs.Baseline)
		}
		if len(rs.Phat) > 0 {
			c.Drift.SetEstimate(rs.Phat)
		}
		c.Drift.SetPredictedComm(rs.PredictedComm)
	}
	if rs.HasReplace && c.Ctrl != nil {
		c.Ctrl.RestoreState(rs.ReplaceOver, rs.ReplaceCooldown)
	}
	if c.Losses != nil {
		c.Losses.Values = append([]float64(nil), rs.Losses...)
	}
	return nil
}

// Resume continues a run from the newest valid generation in store — the
// one sequence a restarted master follows. The system was attached but
// not Distributed: grid, the experts the prelude rebuilt, supplies the
// frozen weights, and RestoreRun ships them with the checkpointed
// trainable state and moments onto the checkpointed assignment. In order:
// register grid as the base; load, falling back past torn generations;
// refuse a checkpoint written under other prelude seeds instead of
// silently diverging; RestoreRun, which refuses a generation trained over
// other frozen weights than grid's; point ft at the first undriven step;
// give the supervisor the restore point of that step from the state just
// shipped; record the resume on the checkpoint meter.
func (s *System) Resume(store *checkpoint.RunStore, grid [][]*moe.Expert, ft *trainer.Finetuner, c *RunCapture) (*checkpoint.RunState, error) {
	t0 := time.Now()
	s.Exec.SetBase(grid)
	rs, err := store.LoadLatest()
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if len(rs.Seeds) > 0 && !slices.Equal(rs.Seeds, c.Seeds) {
		return nil, fmt.Errorf("core: resume: checkpoint seeds %v do not match this run's prelude seeds %v", rs.Seeds, c.Seeds)
	}
	if err := RestoreRun(rs, c); err != nil {
		return nil, err
	}
	ft.StartStep = rs.Step
	if err := s.placed(rs.Step); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	s.Exec.Counters.Set(obs.CkptResumeGeneration, int64(rs.Generation))
	s.Exec.Counters.Set(obs.CkptResumeNanos, int64(time.Since(t0)))
	return rs, nil
}

// RunCheckpointer adapts periodic run-level checkpointing to the
// trainer's OnStep hook: every Every-th completed step it captures the
// run and hands it to the async writer. Checkpointing is best-effort
// durability — a capture failure (e.g. a worker died mid-snapshot and
// the recovery path has not run yet) is counted on the executor's counter
// table and skipped, never fatal to training.
type RunCheckpointer struct {
	// Every checkpoints after every Every-th completed step; <= 1 means
	// every step.
	Every int
	// Cap names the state to flatten; W is the background writer.
	Cap *RunCapture
	W   *checkpoint.AsyncWriter
}

// OnStep implements the trainer.Finetuner OnStep contract; a nil
// checkpointer does nothing. System.StepBoundary runs it after the
// supervisor's Checkpoint, so the expert snapshot is fresh.
func (r *RunCheckpointer) OnStep(step int) error {
	if r == nil || r.W == nil {
		return nil
	}
	if r.Every > 1 && (step+1)%r.Every != 0 {
		return nil
	}
	rs, err := CaptureRun(step, r.Cap)
	if err != nil {
		r.Cap.Exec.Counters.Add(obs.CkptFailures, 1)
		return nil
	}
	r.W.Submit(rs)
	return nil
}
