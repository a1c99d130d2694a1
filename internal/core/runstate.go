package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
)

// This file is the run-level state glue: it knows how to walk a deployed
// VELA system — backbone optimizer, executor, supervisor, data cursor,
// drift monitor, replace controller, loss series — and flatten it into a
// checkpoint.RunState at a step boundary (CaptureRun), and how to pour a
// RunState back in (restore). The system holds every boundary so (hold),
// and restores the held state for a retried step (retry) and a stored one
// for a restarted run (Resume).

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
	// Problem, when set, is the placement problem the supervisor and the
	// controller share; a restore sets its P to the restored drift
	// baseline, the P the restored layout was solved for.
	Problem *placement.Problem
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

// restore is the one restore, of a retried step and of a resumed run: it
// pours rs — boundary rs.Step−1 — into the live system c names, with
// every expert shipped to its host in assign (each entry composed with
// the base registered on the executor; moments included): backbone
// values and AdamW moments matched by parameter name, data cursor, drift
// state, controller counters and loss series. It refuses, before
// anything is changed or sent, a state without exactly one entry per
// expert of assign. Afterwards the trainer drives step rs.Step and
// replays nothing.
//
// The drift baseline is installed before the P̂ estimate (SetBaseline
// resets P̂), and becomes the shared problem's P as well, so a later
// failover repairs over the P the uninterrupted run's would; the
// measured-comm EWMA is deliberately not restored — it tracks wall-clock
// behaviour of the current process and re-warms within a few steps.
func restore(rs *checkpoint.RunState, c *RunCapture, assign *placement.Assignment) error {
	if rs.Experts == nil {
		return fmt.Errorf("core: restore: the state of boundary %d has no expert snapshot", rs.Step-1)
	}
	experts := 0
	for l, row := range assign.Worker {
		for e := range row {
			if rs.Experts.Find(l, e) == nil {
				return fmt.Errorf("core: restore: the state of boundary %d has no entry for expert L%d/E%d", rs.Step-1, l, e)
			}
		}
		experts += len(row)
	}
	if len(rs.Experts.Entries) != experts {
		return fmt.Errorf("core: restore: the state of boundary %d holds %d entries for %d experts", rs.Step-1, len(rs.Experts.Entries), experts)
	}
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
	if err := c.Exec.RestoreExperts(rs.Experts.Entries, assign); err != nil {
		return fmt.Errorf("core: restore: redistributing experts: %w", err)
	}
	c.Exec.SetAssignment(assign)
	if len(rs.Cursor) > 0 {
		if c.Seek == nil {
			return fmt.Errorf("core: restore: checkpoint has a data cursor but no Seek is wired")
		}
		if err := c.Seek(rs.Cursor); err != nil {
			return fmt.Errorf("core: restore: data cursor: %w", err)
		}
	}
	if c.Problem != nil && len(rs.Baseline) > 0 {
		c.Problem.P = rs.Baseline // read-only on both sides, like every P
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

// capture names the live state of the system's run: the finetuner's
// backbone, AdamW, batch-source position and loss series, the executor
// and the supervisor's snapshot, the drift monitor, the controller and
// the problem they share.
func (s *System) capture() *RunCapture {
	c := &RunCapture{Backbone: s.ft.Backbone, Exec: s.Exec, Sup: s.sup, Ctrl: s.ctrl, Problem: s.Problem, Losses: &s.ft.Losses}
	c.Opt, _ = s.ft.Opt.(*nn.AdamW)
	if src, ok := s.ft.Batcher.(data.CursorSource); ok {
		c.Cursor, c.Seek = src.Cursor, src.SeekTo
	}
	if s.Obs != nil {
		c.Drift = s.Obs.Drift
	}
	return c
}

// hold captures boundary step as the held state: the restore point of
// step+1's retry, and what CheckpointEvery writes. With a supervisor it
// reuses the snapshot the boundary's first leg pulled, so it sends
// nothing; without one it is taken only for the writer and pulls its own.
func (s *System) hold(step int) error {
	write := s.ckpt != nil && (s.ckptEvery <= 1 || (step+1)%s.ckptEvery == 0)
	if s.ft == nil || s.sup == nil && !write {
		return nil
	}
	rs, err := CaptureRun(step, s.capture())
	if err != nil {
		return err
	}
	s.held = rs
	if write {
		stamped := *rs
		stamped.Seeds = s.ckptSeeds
		s.ckpt.Submit(&stamped)
	}
	return nil
}

// holdFirst takes the restore point of the first step the run drives, an
// ordinary capture of boundary StartStep−1, once the supervisor, the
// finetuner and the experts on the workers all exist.
func (s *System) holdFirst() error {
	if s.sup == nil || s.ft == nil || !s.onWorkers {
		return nil
	}
	step := s.ft.StartStep - 1
	err := s.sup.Checkpoint(step)
	if err == nil {
		s.held, err = CaptureRun(step, s.capture())
	}
	if err != nil {
		return fmt.Errorf("core: first restore point: %w", err)
	}
	return nil
}

// retry is a supervised finetuner's Recover. A failure anywhere in step
// s, its boundary included, restores the held state of boundary s−1 —
// over the survivors when a worker died (Supervisor.Recover) — and the
// trainer re-drives s from it, re-drawing its batch and taking boundary s
// again. A failed attempt never replaces the held state: the boundary
// holds last.
func (s *System) retry(step int, cause error) error {
	rs, err := s.held, errors.New("no held state to restore")
	if rs != nil && rs.Step != step {
		err = fmt.Errorf("the held state is of boundary %d, a retry of step %d restores boundary %d", rs.Step-1, step, step-1)
	} else if rs != nil {
		err = s.sup.Recover(s.Exec.Assignment(), func(next *placement.Assignment) error { return restore(rs, s.capture(), next) })
	}
	if err != nil {
		return fmt.Errorf("core: retrying step %d after %v: %w", step, cause, err)
	}
	return nil
}

// Resume continues a run from the newest valid generation in store — the
// one sequence a restarted master follows, and the same restore a retry
// takes, fed from the store instead of memory. The system was attached
// but not Distributed, and its Finetuner is built: grid, the experts the
// prelude rebuilt, supplies the frozen weights, and the restore ships them
// with the stored trainable state and moments onto the stored assignment.
// In order: register grid as the base; load, falling back past torn
// generations; refuse a checkpoint written under other prelude seeds
// instead of silently diverging; restore, which refuses a generation
// trained over other frozen weights than grid's; point the finetuner at
// the first undriven step; take that step's restore point; record the
// resume on the checkpoint meter.
func (s *System) Resume(store *checkpoint.RunStore, grid [][]*moe.Expert, seeds []int64) (*checkpoint.RunState, error) {
	t0 := time.Now()
	if s.ft == nil {
		return nil, errors.New("core: resume: build the Finetuner first")
	}
	s.Exec.SetBase(grid)
	rs, err := store.LoadLatest()
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if len(rs.Seeds) > 0 && !slices.Equal(rs.Seeds, seeds) {
		return nil, fmt.Errorf("core: resume: checkpoint seeds %v do not match this run's prelude seeds %v", rs.Seeds, seeds)
	}
	if err := restore(rs, s.capture(), &placement.Assignment{Worker: rs.Assignment}); err != nil {
		return nil, err
	}
	s.ft.StartStep, s.onWorkers = rs.Step, true
	if err := s.holdFirst(); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	s.Exec.Counters.Set(obs.CkptResumeGeneration, int64(rs.Generation))
	s.Exec.Counters.Set(obs.CkptResumeNanos, int64(time.Since(t0)))
	return rs, nil
}
