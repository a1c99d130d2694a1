package replace

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
)

// fakeMigrator applies plans to an in-memory assignment, recording every
// plan the controller hands it.
type fakeMigrator struct {
	assign *placement.Assignment
	dead   []bool
	plans  [][]placement.Move
}

func (f *fakeMigrator) Assignment() *placement.Assignment { return f.assign }

func (f *fakeMigrator) ExecutePlan(plan []placement.Move) (int, error) {
	f.plans = append(f.plans, plan)
	moved := 0
	for _, m := range plan {
		if f.assign.Worker[m.Layer][m.Expert] == m.To {
			continue
		}
		next := f.assign.Clone()
		next.Worker[m.Layer][m.Expert] = m.To
		f.assign = next
		moved++
	}
	return moved, nil
}

func (f *fakeMigrator) DeadMask() []bool {
	if f.dead == nil {
		return make([]bool, len(f.assign.Worker[0]))
	}
	return f.dead
}

// testProblem: 2 equal workers, 1 layer, 4 experts, uniform profiled P.
// Comm scale chosen so re-solving a skewed P̂ yields clearly positive
// savings.
func testProblem() *placement.Problem {
	return &placement.Problem{
		Workers: 2, Layers: 1, Experts: 4,
		P:               [][]float64{{0.25, 0.25, 0.25, 0.25}},
		Bandwidth:       []float64{1e9, 1e9},
		Capacity:        []int{4, 4},
		RoutingsPerStep: 1024,
		BytesPerToken:   4096,
		WorkerNode:      []int{0, 1},
	}
}

// testHandle builds an obs handle whose drift monitor reacts instantly
// (alpha=1: P̂ is exactly the last step's empirical routing) with the
// uniform baseline installed.
func testHandle(prob *placement.Problem) *obs.Handle {
	h := obs.NewHandle(obs.Config{Workers: prob.Workers, Layers: prob.Layers, Experts: prob.Experts})
	h.Drift = obs.NewDriftMonitor(prob.Layers, prob.Experts, 1)
	h.Drift.SetBaseline(prob.P)
	return h
}

// roundRobin: expert e on worker e%2 — experts 0,2 on w0; 1,3 on w1.
func roundRobin(prob *placement.Problem) *placement.Assignment {
	a := placement.NewAssignment(prob.Layers, prob.Experts)
	for l := range a.Worker {
		for e := range a.Worker[l] {
			a.Worker[l][e] = e % prob.Workers
		}
	}
	return a
}

// driftStep feeds one step of routing through the handle: hot routes all
// mass to experts 0 and 2 (co-located on worker 0 under round-robin, so
// a re-solve wants to split them); calm routes uniformly.
func driftStep(h *obs.Handle, step int, hot bool) {
	h.StartStep(step)
	if hot {
		h.RecordRouting(0, [][]int{{0, 2, 0, 2, 0, 2, 0, 2}})
	} else {
		h.RecordRouting(0, [][]int{{0, 1, 2, 3, 0, 1, 2, 3}})
	}
	h.EndStep()
}

func newController(t *testing.T, prob *placement.Problem, h *obs.Handle, mig Migrator, cfg Config) *Controller {
	t.Helper()
	c, err := New(prob, h, obs.NewCounters(nil), mig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTransientSpikeDoesNotTrigger: drift over threshold for K-1 steps
// then back under must never re-solve — the hysteresis counter resets.
func TestTransientSpikeDoesNotTrigger(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob)}
	c := newController(t, prob, h, mig, Config{DriftThreshold: 0.5, ExpertBytes: 1e3})

	step := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ { // K-1 hot steps
			driftStep(h, step, true)
			if err := c.OnStep(step); err != nil {
				t.Fatal(err)
			}
			step++
		}
		driftStep(h, step, false) // spike ends: alpha=1 snaps P̂ back
		if err := c.OnStep(step); err != nil {
			t.Fatal(err)
		}
		step++
	}
	if len(mig.plans) != 0 {
		t.Fatalf("transient spikes executed %d plans, want 0", len(mig.plans))
	}
	if n := c.stats.Get(obs.ReplaceTriggers); n != 0 {
		t.Fatalf("triggers = %d, want 0", n)
	}
}

// TestSustainedDriftTriggersOnceAndRebaselines: K consecutive hot steps
// arm and fire exactly one migration; the drift baseline is re-anchored
// to P̂ so MaxDrift collapses, and the cooldown holds even though the
// traffic stays hot.
func TestSustainedDriftTriggersOnceAndRebaselines(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob)}
	c := newController(t, prob, h, mig, Config{
		DriftThreshold: 0.5, CooldownSteps: 10, ExpertBytes: 1e3,
	})

	for step := 0; step < 20; step++ {
		driftStep(h, step, true)
		if err := c.OnStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if len(mig.plans) != 1 {
		t.Fatalf("executed %d plans, want exactly 1 (hysteresis + rebaseline + cooldown)", len(mig.plans))
	}
	s := c.stats
	if s.Get(obs.ReplaceTriggers) != 1 || s.Get(obs.ReplaceMigrations) != 1 || s.Get(obs.ReplaceMoves) == 0 {
		t.Fatalf("%d triggers, %d migrations, %d moves", s.Get(obs.ReplaceTriggers), s.Get(obs.ReplaceMigrations), s.Get(obs.ReplaceMoves))
	}
	if last := s.Get(obs.ReplaceLastStep); last != 2 {
		t.Fatalf("migration fired at step %d, want 2 (K=3: steps 0,1 arm, 2 fires)", last)
	}
	if s.Get(obs.ReplaceSavingsNanos) <= 0 || s.Get(obs.ReplaceMoveCostNanos) <= 0 {
		t.Fatalf("decision gauges = %d / %d ns, want the executed plan's economics", s.Get(obs.ReplaceSavingsNanos), s.Get(obs.ReplaceMoveCostNanos))
	}
	// Post-migration the hot experts are split across workers.
	after := mig.assign.Worker[0]
	if after[0] == after[2] {
		t.Fatalf("hot experts 0 and 2 still co-located on worker %d after re-solve", after[0])
	}
	// Rebaseline: P̂ == baseline right after the migration step, and the
	// hot traffic MATCHES the new baseline, so drift stays collapsed.
	if d := h.Drift.MaxDrift(); d > 1e-9 {
		t.Fatalf("MaxDrift = %v after rebaseline under stationary-hot traffic, want ~0", d)
	}
}

// TestCooldownRespected: with the cost gate rejecting every plan (so no
// rebaseline happens and the signal keeps firing), re-solves may only
// happen every CooldownSteps+K boundaries, never back-to-back.
func TestCooldownRespected(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob)}
	c := newController(t, prob, h, mig, Config{
		DriftThreshold: 0.5, CooldownSteps: 6,
		// An absurd payload makes every plan fail the cost gate.
		ExpertBytes: 1e18,
	})

	triggerSteps := []int{}
	for step := 0; step < 21; step++ {
		driftStep(h, step, true)
		before := c.stats.Get(obs.ReplaceTriggers)
		if err := c.OnStep(step); err != nil {
			t.Fatal(err)
		}
		if c.stats.Get(obs.ReplaceTriggers) > before {
			triggerSteps = append(triggerSteps, step)
		}
	}
	if len(mig.plans) != 0 {
		t.Fatalf("cost gate leaked %d plans", len(mig.plans))
	}
	if skips, triggers := c.stats.Get(obs.ReplaceCostSkips), c.stats.Get(obs.ReplaceTriggers); skips == 0 || skips != triggers {
		t.Fatalf("%d cost skips for %d triggers, want every trigger cost-skipped", skips, triggers)
	}
	// K=3 arms at steps 0,1,2 → first trigger step 2; then 6 cooldown
	// steps (3..8) + 3 arming (9..11) → next trigger step 11, then 20.
	want := []int{2, 11, 20}
	if len(triggerSteps) != len(want) {
		t.Fatalf("trigger steps = %v, want %v", triggerSteps, want)
	}
	for i := range want {
		if triggerSteps[i] != want[i] {
			t.Fatalf("trigger steps = %v, want %v", triggerSteps, want)
		}
	}
}

// TestNoMovesRebaselinesWithoutMigration: when the re-solve confirms the
// current placement, the controller must quiet the signal (rebaseline)
// without executing anything.
func TestNoMovesRebaselinesWithoutMigration(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob)}
	c := newController(t, prob, h, mig, Config{DriftThreshold: 0.5, ExpertBytes: 1e3})

	// Hot traffic on experts 0 and 1 — ALREADY split across the two
	// workers under round-robin, so the re-solve keeps the layout.
	for step := 0; step < 4; step++ {
		h.StartStep(step)
		h.RecordRouting(0, [][]int{{0, 1, 0, 1, 0, 1, 0, 1}})
		h.EndStep()
		if err := c.OnStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if len(mig.plans) != 0 {
		t.Fatalf("no-move re-solve executed %d plans", len(mig.plans))
	}
	if triggers, migrations := c.stats.Get(obs.ReplaceTriggers), c.stats.Get(obs.ReplaceMigrations); triggers != 1 || migrations != 0 {
		t.Fatalf("%d triggers, %d migrations, want 1 and 0", triggers, migrations)
	}
	if d := h.Drift.MaxDrift(); d > 1e-9 {
		t.Fatalf("MaxDrift = %v after confirming re-solve, want ~0 (baseline re-anchored)", d)
	}
}

// TestDeadWorkerExcludedFromResolve: a re-solve over a dead worker's
// zeroed capacity must evacuate it and never migrate anything onto it —
// even when the current (infeasible) layout cannot be cost-evaluated.
func TestDeadWorkerExcludedFromResolve(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob), dead: []bool{false, true}}
	c := newController(t, prob, h, mig, Config{DriftThreshold: 0.5, ExpertBytes: 1e3})

	for step := 0; step < 3; step++ { // K=3: steps 0 and 1 arm, 2 re-solves
		driftStep(h, step, true)
		if err := c.OnStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if len(mig.plans) != 1 {
		t.Fatalf("executed %d plans, want 1 (evacuating the dead worker)", len(mig.plans))
	}
	for _, m := range mig.plans[0] {
		if m.To == 1 {
			t.Fatalf("plan migrates L%d/E%d ONTO dead worker 1", m.Layer, m.Expert)
		}
	}
	for e, n := range mig.assign.Worker[0] {
		if n == 1 {
			t.Fatalf("expert %d still on dead worker after re-solve", e)
		}
	}
	// The template problem's own capacities must not have been mutated.
	if prob.Capacity[1] != 4 {
		t.Fatalf("controller mutated the template problem's capacity: %v", prob.Capacity)
	}
}

// TestConfigValidation pins the constructor's guardrails.
func TestConfigValidation(t *testing.T) {
	prob := testProblem()
	h := testHandle(prob)
	mig := &fakeMigrator{assign: roundRobin(prob)}
	if _, err := New(prob, h, nil, mig, Config{}); err == nil {
		t.Fatal("a disabled trigger signal must be rejected")
	}
	if _, err := New(nil, h, nil, mig, Config{DriftThreshold: 0.1}); err == nil {
		t.Fatal("nil problem must be rejected")
	}
	if _, err := New(prob, nil, nil, mig, Config{DriftThreshold: 0.1}); err == nil {
		t.Fatal("nil handle must be rejected")
	}
}
