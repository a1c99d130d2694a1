// Package replace closes VELA's placement loop at runtime: an online
// re-placement controller that watches the observability layer's
// staleness signal (P̂ drift) at every step boundary and, when the signal
// persists, re-solves
// the placement over the live routing estimate and migrates experts to
// the new layout through the broker's snapshot-first migration path —
// without pausing training.
//
// The controller is deliberately conservative about acting:
//
//   - Hysteresis: the signal must stay over threshold for K consecutive
//     step boundaries before a re-solve runs, so transient routing spikes
//     (one unusual batch) never trigger a migration.
//   - Cooldown: after any decision that consumed a re-solve — a
//     migration, an empty diff, or a cost-gated skip — the controller
//     sleeps for M steps. Re-placements cannot thrash back and forth.
//   - Migration-cost gate: a re-solve's plan only executes when the
//     predicted communication savings, amortized over amortizeSteps,
//     exceed the one-time cost of moving the experts.
//
// The pipeline per decision is signal → decision → plan → execution:
// read MaxDrift, ask Decide — re-solve over P̂ with dead
// workers' capacity zeroed, diff, price both layouts — order the moves
// capacity-safely, and execute the plan at the step boundary. After a
// migration the drift baseline, the predicted-comm gauge and the shared
// problem's P are re-anchored to the new placement, so the staleness
// signal measures the NEW layout's fidelity and a failover repairs over
// the P it was solved for.
package replace

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/placement"
)

// Migrator is the slice of the broker executor the controller drives.
// *broker.Executor satisfies it.
type Migrator interface {
	// Assignment returns the live expert→worker placement.
	Assignment() *placement.Assignment
	// ExecutePlan runs an ordered migration plan, returning how many
	// experts actually moved.
	ExecutePlan(plan []placement.Move) (int, error)
	// DeadMask reports which workers have been declared dead.
	DeadMask() []bool
}

// Config tunes the controller. DriftThreshold must be set; SetDefaults
// fills the structural knobs.
type Config struct {
	// DriftThreshold triggers on DriftMonitor.MaxDrift() — the largest
	// per-layer L1 distance between the EWMA routing estimate and the
	// placement-time P. It must be > 0.
	DriftThreshold float64
	// CooldownSteps (M) is how many step boundaries the controller stays
	// silent after consuming a re-solve. Default 20.
	CooldownSteps int
	// ExpertBytes is the wire payload of migrating one expert
	// (broker.ExpertSpec.PayloadBytes()); feeds the move-cost model.
	ExpertBytes float64
	// Strategy re-solves the placement. Default placement.LocalityLP.
	Strategy placement.Strategy
}

// The structural constants: consecutiveSteps (K) over-threshold step
// boundaries arm a re-solve, and a plan executes only when its savings
// per step over amortizeSteps cover its one-time move cost.
const (
	consecutiveSteps = 3
	amortizeSteps    = 50
)

// setDefaults fills unset structural knobs in place.
func (c *Config) setDefaults() {
	if c.CooldownSteps <= 0 {
		c.CooldownSteps = 20
	}
	if c.Strategy == nil {
		c.Strategy = placement.LocalityLP{}
	}
}

// Controller is the online re-placement loop. Wire OnStep into the
// trainer's step-boundary hook (after the supervisor's Checkpoint, so a
// migration is always preceded by a fresh snapshot). All state is owned
// by the training goroutine; only the obs gauges are shared.
type Controller struct {
	cfg   Config
	prob  *placement.Problem
	drift *obs.DriftMonitor
	stats *obs.Counters
	mig   Migrator

	over      int    // consecutive over-threshold step boundaries
	cooldown  int    // step boundaries left before the controller may act
	requested string // non-empty: an external re-solve request (worker rejoin)

	// LastReason describes the most recent decision ("idle", "cooldown",
	// "arming 2/3", "migrated 5 experts", "cost-skip", ...). Diagnostic
	// only.
	LastReason string
	// OnReplace, when non-nil, is invoked after each executed migration
	// with the step, the number of experts moved, and the decision's
	// predicted savings/step and one-time cost (seconds).
	OnReplace func(step, moved int, savings, cost float64)
}

// New builds a controller over the placement problem it shares with the
// supervisor (its topology fields are reused for every re-solve; P is
// replaced by the live estimate, and a re-anchor writes that P back —
// see rebaseline), the observability handle feeding the signals, the
// counter table recording decisions (nil discards them), and the
// migrator executing plans.
func New(prob *placement.Problem, h *obs.Handle, stats *obs.Counters, mig Migrator, cfg Config) (*Controller, error) {
	cfg.setDefaults()
	if prob == nil || mig == nil {
		return nil, fmt.Errorf("replace: nil problem or migrator")
	}
	if h == nil || h.Drift == nil {
		return nil, fmt.Errorf("replace: controller needs a live obs handle (drift monitor feeds the trigger signal)")
	}
	if cfg.DriftThreshold <= 0 {
		return nil, fmt.Errorf("replace: the trigger signal is disabled (set DriftThreshold)")
	}
	return &Controller{
		cfg:        cfg,
		prob:       prob,
		drift:      h.Drift,
		stats:      stats,
		mig:        mig,
		LastReason: "idle",
	}, nil
}

// State returns the hysteresis counter and remaining cooldown — the
// controller slice of a run-level checkpoint. Call from the training
// goroutine, like OnStep.
func (c *Controller) State() (over, cooldown int) { return c.over, c.cooldown }

// RestoreState reinstates counters captured by State, so a resumed run's
// controller decisions replay exactly as the uninterrupted run's would.
func (c *Controller) RestoreState(over, cooldown int) {
	c.over, c.cooldown = over, cooldown
	c.stats.Set(obs.ReplaceCooldown, int64(c.cooldown))
}

// RequestResolve asks the controller to run a re-solve at its next step
// boundary regardless of hysteresis and cooldown. This is the
// supervisor's worker-rejoin nudge: restored capacity is an event, not a
// drift signal, so it should neither wait out K consecutive
// over-threshold boundaries nor sit behind a cooldown from an earlier
// decision. The migration-cost gate still applies — experts migrate back
// to the rejoined worker only when the savings amortize the moves.
func (c *Controller) RequestResolve(reason string) { c.requested = reason }

// OnStep runs one controller decision at a step boundary. Returns an
// error only when a migration plan failed mid-execution (the assignment
// stays consistent; the caller decides whether to abort). Solver
// failures are absorbed: the controller records the reason, enters
// cooldown, and training continues on the stale placement.
func (c *Controller) OnStep(step int) error {
	c.stats.Add(obs.ReplaceChecks, 1)
	if c.requested != "" {
		reason := c.requested
		c.requested = ""
		c.over = 0
		c.stats.Add(obs.ReplaceTriggers, 1)
		c.LastReason = fmt.Sprintf("requested: %s", reason)
		return c.resolve(step)
	}
	if c.cooldown > 0 {
		c.cooldown--
		c.stats.Set(obs.ReplaceCooldown, int64(c.cooldown))
		c.LastReason = "cooldown"
		return nil
	}
	if !c.signal() {
		c.over = 0
		c.LastReason = "idle"
		return nil
	}
	c.over++
	if c.over < consecutiveSteps {
		c.LastReason = fmt.Sprintf("arming %d/%d", c.over, consecutiveSteps)
		return nil
	}
	c.over = 0
	c.stats.Add(obs.ReplaceTriggers, 1)
	return c.resolve(step)
}

// signal evaluates the trigger predicate over the live drift gauge.
func (c *Controller) signal() bool { return c.drift.MaxDrift() >= c.cfg.DriftThreshold }

// Verdict is what Decide concluded about a re-solve that succeeded.
type Verdict int

const (
	// Confirmed: the fresh solve is the current assignment.
	Confirmed Verdict = iota
	// NoBetter: the fresh solve differs but saves nothing per step, so
	// moving would be sideways.
	NoBetter
	// CostSkip: the savings, amortized over amortizeSteps, do not cover
	// the one-time cost of the moves.
	CostSkip
	// Migrate: the plan is worth executing.
	Migrate
)

// String names the verdict the way Controller.LastReason reports it.
func (v Verdict) String() string {
	return [...]string{
		"re-solve confirmed current placement",
		"re-solve no better than current placement",
		"cost-skip",
		"migrate",
	}[v]
}

// Decision is the outcome of one re-placement analysis.
type Decision struct {
	Verdict Verdict
	// Next is the freshly solved assignment, Moves its diff against the
	// current one and Cost their one-time cost in seconds.
	Next  *placement.Assignment
	Moves []placement.Move
	Cost  float64
	// Current and Proposed are the expected per-step communication times
	// of the current and the fresh assignment, Savings their difference.
	// An infeasible current layout (experts parked on a worker the
	// problem gives zero capacity) prices as +Inf: any feasible target is
	// worth reaching, whatever the moves cost.
	Current, Proposed, Savings float64
}

// Decide is the controller's decision without its side effects: re-solve
// prob with cfg.Strategy, diff against cur, price both layouts with the
// placement objective, stand down when the fresh solve saves nothing, and
// gate what is left on the amortized migration cost. The controller, the
// drift ablation (velabench -fig drift) and core's TestShiftReplacesOnce
// all ask this one function whether a re-placement would pay. The error
// is a solver or diff failure, or a solved assignment that does not
// validate against its own problem — never execute a plan toward that.
func Decide(prob *placement.Problem, cur *placement.Assignment, cfg Config) (Decision, error) {
	cfg.setDefaults()
	next, err := cfg.Strategy.Place(prob)
	if err != nil {
		return Decision{}, fmt.Errorf("solver failed: %w", err)
	}
	moves, err := placement.Diff(cur, next)
	if err != nil {
		return Decision{}, fmt.Errorf("diff failed: %w", err)
	}
	nextM, err := placement.Evaluate(prob, next)
	if err != nil {
		return Decision{}, fmt.Errorf("re-solved assignment invalid: %w", err)
	}
	d := Decision{
		Next: next, Moves: moves, Cost: placement.MoveCostSeconds(prob, moves, cfg.ExpertBytes),
		Current: math.Inf(1), Proposed: nextM.CommTime,
	}
	if curM, err := placement.Evaluate(prob, cur); err == nil {
		d.Current = curM.CommTime
	}
	d.Savings = d.Current - d.Proposed
	switch {
	case len(moves) == 0:
		d.Verdict = Confirmed
	case d.Savings <= 0:
		d.Verdict = NoBetter
	case d.Savings*amortizeSteps < d.Cost:
		d.Verdict = CostSkip
	default:
		d.Verdict = Migrate
	}
	return d, nil
}

// resolve runs one decision over the live problem and acts on its
// verdict. Whatever the outcome it consumed the re-solve, so the
// controller enters cooldown.
func (c *Controller) resolve(step int) error {
	prob := c.liveProblem()
	cur := c.mig.Assignment()
	d, err := Decide(prob, cur, c.cfg)
	c.enterCooldown()
	if err != nil {
		// Non-fatal: training continues on the stale placement; cooldown
		// stops the controller from re-solving every K steps forever.
		c.LastReason = err.Error()
		return nil
	}
	if d.Verdict == Confirmed || d.Verdict == NoBetter {
		// The drift was real but harmless. Re-anchor the baseline so the
		// signal stops firing on it instead of migrating sideways.
		c.rebaseline(prob, cur)
		c.LastReason = d.Verdict.String()
		return nil
	}
	c.stats.Set(obs.ReplaceSavingsNanos, obs.Nanos(d.Savings))
	c.stats.Set(obs.ReplaceMoveCostNanos, obs.Nanos(d.Cost))
	if d.Verdict == CostSkip {
		c.stats.Add(obs.ReplaceCostSkips, 1)
		c.LastReason = fmt.Sprintf("cost-skip: savings %.3gs/step over %d steps < %.3gs move cost",
			d.Savings, amortizeSteps, d.Cost)
		return nil
	}

	plan := placement.OrderMoves(d.Moves, cur.Loads(prob.Workers), prob.Capacity)
	moved, err := c.mig.ExecutePlan(plan)
	if err != nil {
		c.LastReason = fmt.Sprintf("plan aborted after %d moves: %v", moved, err)
		return fmt.Errorf("replace: step %d: %w", step, err)
	}
	c.stats.Add(obs.ReplaceMigrations, 1)
	c.stats.Add(obs.ReplaceMoves, int64(moved))
	c.stats.Set(obs.ReplaceLastStep, int64(step))
	c.rebaseline(prob, c.mig.Assignment())
	c.LastReason = fmt.Sprintf("migrated %d experts", moved)
	if c.OnReplace != nil {
		c.OnReplace(step, moved, d.Savings, d.Cost)
	}
	return nil
}

// liveProblem clones the problem template with P replaced by the live
// routing estimate and dead workers' capacity zeroed (the solver must
// not place experts on them).
func (c *Controller) liveProblem() *placement.Problem {
	p := *c.prob
	if phat := c.drift.Phat(); phat != nil {
		p.P = phat
	}
	p.Capacity = append([]int(nil), p.Capacity...)
	for n, d := range c.mig.DeadMask() {
		if d && n < len(p.Capacity) {
			p.Capacity[n] = 0
		}
	}
	return &p
}

// rebaseline re-anchors the staleness signals to the placement just
// confirmed or installed: the drift baseline becomes the P the solver
// saw (so MaxDrift restarts near zero) and the predicted-comm gauge
// becomes the new layout's objective value. The shared problem takes
// that P too, and only P (the live problem's zeroed dead-worker
// capacities stay out of it): the supervisor repairs a failover over it,
// and the layout is now solved for this P, not the profiled one.
func (c *Controller) rebaseline(prob *placement.Problem, a *placement.Assignment) {
	c.prob.P = prob.P
	c.drift.SetBaseline(prob.P)
	if m, err := placement.Evaluate(prob, a); err == nil {
		c.drift.SetPredictedComm(m.CommTime)
	}
}

func (c *Controller) enterCooldown() {
	c.cooldown = c.cfg.CooldownSteps
	c.stats.Set(obs.ReplaceCooldown, int64(c.cooldown))
}
