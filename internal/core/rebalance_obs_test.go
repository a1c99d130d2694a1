package core

import (
	"slices"
	"testing"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestRebalanceRefreshesDriftBaseline is the regression test for the
// stale-plumbing bug: a re-placement used to migrate experts and leave
// the drift monitor anchored to the ORIGINAL placement-time P and the
// predicted-comm gauge at the original objective value — so right after
// it the staleness signal reported the drift it had just resolved. Here
// the controller migrates onto a skewed P̂ at a step boundary; the drift
// restarts at 0, the shared problem holds the P̂ it solved over, and the
// gauge is that problem's objective for the new layout.
func TestRebalanceRefreshesDriftBaseline(t *testing.T) {
	m, grid, opts, _ := prelude(t)
	opts.Strategy = placement.Sequential{} // non-optimized start so the re-solve moves experts
	h := opts.Obs
	h.Drift = obs.NewDriftMonitor(m.Cfg.Layers, m.Cfg.Experts, 0.5) // reacts fast: a few skewed steps show drift
	sys, err := Deploy(m, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctrl, err := sys.ReplaceController(replace.Config{DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Pollute the drift estimate: all routings hit expert 0.
	skew := make([]int, 32)
	for step := 0; step < 5; step++ {
		h.StartStep(step)
		for l := 0; l < m.Cfg.Layers; l++ {
			h.RecordRouting(l, [][]int{skew})
		}
		h.EndStep()
	}
	if testutil.BitEqual(h.Drift.MaxDrift(), 0) {
		t.Fatal("setup: skewed routing produced no drift")
	}
	predBefore, _ := h.Drift.CommGauges()
	phat := h.Drift.Phat()

	ctrl.RequestResolve("test")
	if err := sys.StepBoundary(4); err != nil {
		t.Fatal(err)
	}
	if sys.Exec.Counters.Get(obs.ReplaceMoves) == 0 {
		t.Fatalf("the re-solve moved nothing (%q); test needs a layout change", ctrl.LastReason)
	}

	// Baseline re-anchored: the drift accumulated against the OLD
	// placement must be gone.
	if d := h.Drift.MaxDrift(); !testutil.BitEqual(d, 0) {
		t.Fatalf("MaxDrift = %v after the migration, want 0 (baseline refreshed)", d)
	}
	for l, row := range phat {
		if !testutil.BitEqualSlices(sys.Problem.P[l], row) {
			t.Fatalf("layer %d: the shared problem's P = %v, want the P̂ the controller solved over %v", l, sys.Problem.P[l], row)
		}
	}
	// Predicted comm tracks the NEW assignment's objective, not the
	// Sequential layout's.
	predAfter, _ := h.Drift.CommGauges()
	wantM, err := placement.Evaluate(sys.Problem, sys.Exec.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(predAfter, wantM.CommTime) {
		t.Fatalf("predicted comm = %v, want new objective %v", predAfter, wantM.CommTime)
	}
	if testutil.BitEqual(predAfter, predBefore) {
		t.Fatalf("predicted comm unchanged (%v) across a layout-changing migration", predBefore)
	}
}

// TestBitDepthResolvedOnce pins the cost-model unification: the resolved
// bit depth reaches both the executor's byte accounting and the
// placement objective, for the default and an explicit override alike.
func TestBitDepthResolvedOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bitDepth  int
		wantDepth int
	}{
		{"default", 0, DefaultBitDepth},
		{"explicit-8bit", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, grid, opts, _ := prelude(t)
			opts.BitDepth = tc.bitDepth
			sys, err := Deploy(m, grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			wantBPV := float64(tc.wantDepth) / 8
			if !testutil.BitEqual(sys.Exec.BytesPerValue, wantBPV) {
				t.Fatalf("executor BytesPerValue = %v, want %v", sys.Exec.BytesPerValue, wantBPV)
			}
			wantBPT := float64(tc.wantDepth) * float64(m.Cfg.D) / 8
			if !testutil.BitEqual(sys.Problem.BytesPerToken, wantBPT) {
				t.Fatalf("objective BytesPerToken = %v, want %v", sys.Problem.BytesPerToken, wantBPT)
			}
		})
	}
}

// migration is what migrateThenFail observed: the P̂ the controller
// solved over at boundary migrateAt, the assignment it migrated to, and,
// once worker victim died before step killAt and the retry failed it
// over, the assignment and predicted-comm gauge the run ended on.
type migration struct {
	prob             placement.Problem // the shared problem, at the end
	phat             [][]float64
	migrated, final  *placement.Assignment
	victim           int
	gauge            float64
	losses           []float64
	failovers, moved int64
}

const (
	migrateAt = 2 // the boundary whose requested re-solve migrates
	writeAt   = 3 // the boundary whose generation a resume starts from
	killAt    = 4 // the step whose first attempt finds the victim dead
	runSteps  = 6
)

// migrateThenFail runs the supervised, controlled system on a Sequential
// start whose controller migrates at boundary migrateAt and whose
// checkpoint writer keeps boundary writeAt in store; the worker hosting
// L0/E0 then dies before step killAt, which the retry fails over. With
// resume set, the run is instead a restarted master: it resumes from
// store's generation and loses the same worker before its first step.
func migrateThenFail(t *testing.T, store *checkpoint.RunStore, resume bool) migration {
	t.Helper()
	m, grid, opts, corpus := prelude(t)
	opts.Topo = cluster.Uniform(3, 1, 5, 100*cluster.GB, 1*cluster.GB) // survivors have room to choose where orphans go
	opts.Strategy = placement.Sequential{}                             // non-optimized, so the re-solve has moves to make
	dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), broker.DefaultWorkerConfig())
	t.Cleanup(func() { dep.Close(); dep.WaitAll() })
	sys, err := Attach(m, append([]transport.Conn(nil), dep.Conns...), opts)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{5}
	ft, ctrl := supervised(t, sys, corpus)
	var got migration
	kill := func() {
		got.victim = sys.Exec.Assignment().Worker[0][0]
		sys.Exec.MarkDead(got.victim)
	}
	if resume {
		if _, err := sys.Resume(store, grid, seeds); err != nil {
			t.Fatal(err)
		}
		kill()
	} else {
		if err := sys.Distribute(grid); err != nil {
			t.Fatal(err)
		}
		w := checkpoint.NewAsyncWriter(store, nil)
		sys.CheckpointEvery(writeAt+1, seeds, w)
		defer func() {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		ft.OnStep = func(step int) error {
			if step == migrateAt {
				// The routing shifted onto each layer's last expert.
				got.phat = sys.Obs.Drift.Phat()
				for _, row := range got.phat {
					for e := range row {
						row[e] = 0.01
					}
					row[len(row)-1] = 1 - 0.01*float64(len(row)-1)
				}
				sys.Obs.Drift.SetEstimate(got.phat)
				ctrl.RequestResolve("test")
			}
			err := sys.StepBoundary(step)
			switch step {
			case migrateAt:
				got.migrated = sys.Exec.Assignment()
			case killAt - 1:
				kill()
			}
			return err
		}
	}
	if err := ft.Run(runSteps, nil); err != nil {
		t.Fatal(err)
	}
	got.prob, got.final = *sys.Problem, sys.Exec.Assignment()
	got.gauge, _ = sys.Obs.Drift.CommGauges()
	got.losses = ft.Losses.Values
	got.failovers = sys.Exec.Counters.Get(obs.WorkerFailovers)
	got.moved = sys.Exec.Counters.Get(obs.ReplaceMoves)
	return got
}

// TestFailoverAfterRebalanceUsesRefreshedProblem: the supervisor and the
// controller share System.Problem, and the controller used to re-anchor
// the drift baseline and the gauge to the P̂ it migrated over while
// leaving the shared problem on the profiled P — so a failover after a
// migration ran placement.Repair and re-anchored the predicted-comm gauge
// over a P the layout was not solved for. Now the repaired assignment is
// Repair over the controller's P̂, and the gauge its objective there, to
// the bit.
func TestFailoverAfterRebalanceUsesRefreshedProblem(t *testing.T) {
	got := migrateThenFail(t, &checkpoint.RunStore{Dir: t.TempDir()}, false)
	if got.moved == 0 || got.failovers != 1 {
		t.Fatalf("setup: the run moved %d experts and failed over %d time(s), want a migration and one failover", got.moved, got.failovers)
	}
	solved := got.prob
	solved.P = got.phat
	dead := make([]bool, solved.Workers)
	dead[got.victim] = true
	repaired, err := placement.Repair(&solved, got.migrated, dead)
	if err != nil {
		t.Fatal(err)
	}
	for l, row := range repaired.Worker {
		if !slices.Equal(got.final.Worker[l], row) {
			t.Fatalf("layer %d repaired onto %v, want %v: Repair over the P̂ the controller solved with", l, got.final.Worker[l], row)
		}
	}
	want, err := placement.Evaluate(&solved, got.final)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got.gauge, want.CommTime) {
		t.Fatalf("predicted comm = %v after the failover, want %v: the objective over the P̂ the controller solved with", got.gauge, want.CommTime)
	}
}

// TestResumedFailoverAfterRebalanceMatchesUninterrupted: a master
// restarted from a generation written after a migration fails the same
// worker over exactly as the uninterrupted run does — the restore installs
// the generation's drift baseline as the shared problem's P, so Repair
// and the gauge see the P̂ the layout was solved for, not the profiled P
// the restarted prelude starts from — and trains the same losses.
func TestResumedFailoverAfterRebalanceMatchesUninterrupted(t *testing.T) {
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	ref := migrateThenFail(t, store, false)
	got := migrateThenFail(t, store, true)
	if ref.moved == 0 || ref.failovers != 1 || got.failovers != 1 || got.victim != ref.victim {
		t.Fatalf("setup: %d experts moved, failovers %d and %d, victims %d and %d: want a migration and the same worker failed over once in each run",
			ref.moved, ref.failovers, got.failovers, ref.victim, got.victim)
	}
	for l, row := range ref.final.Worker {
		if !slices.Equal(got.final.Worker[l], row) {
			t.Fatalf("layer %d: the resumed run repaired onto %v, the uninterrupted run onto %v", l, got.final.Worker[l], row)
		}
	}
	if !testutil.BitEqual(got.gauge, ref.gauge) {
		t.Fatalf("predicted comm = %v after the resumed run's failover, the uninterrupted run's %v", got.gauge, ref.gauge)
	}
	if !testutil.BitEqualSlices(got.losses, ref.losses) {
		t.Fatalf("the resumed run diverged:\nref    = %v\nresume = %v", ref.losses, got.losses)
	}
}
