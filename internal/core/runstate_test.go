package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// resumeSystem builds one deterministic deployment for the resume tests:
// the full prelude (pretrain, LoRA attach, profile, deploy) is a pure
// function of its seeds, which is exactly what a resuming velamaster
// relies on.
func resumeSystem(t *testing.T) (*System, *trainer.Finetuner, *RunCapture) {
	t.Helper()
	m, grid, _ := buildCheckpoint(t)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
	trainer.PrepareForFinetune(m, grid, lora)
	corpus := data.Shakespeare(4000)
	stats, err := trainer.Profile(m, corpus, 4, 2, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(m, grid, Options{Topo: testTopology(), Stats: stats, LoRA: lora})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ft, err := sys.Finetuner(data.NewBatcher(corpus, 2, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	cap := sys.capture()
	cap.Seeds = []int64{7}
	return sys, ft, cap
}

// TestRunCheckpointResumeBitIdentical is the tentpole invariant at
// package level: a run checkpointed mid-flight and resumed into a
// freshly rebuilt system produces exactly the loss trajectory of an
// uninterrupted run — AdamW moments, data cursor, and step counters
// included, with no replayed steps.
func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	const totalSteps, crashAfter = 8, 5

	// Reference: uninterrupted run.
	_, ref, _ := resumeSystem(t)
	if err := ref.Run(totalSteps, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint at the crashAfter-th completed step,
	// then abandon the system (the "SIGKILL").
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	_, ft1, cap1 := resumeSystem(t)
	ft1.OnStep = func(step int) error {
		if step+1 != crashAfter {
			return nil
		}
		rs, err := CaptureRun(step, cap1)
		if err != nil {
			return err
		}
		_, _, err = store.Save(rs)
		return err
	}
	if err := ft1.Run(crashAfter+1, nil); err != nil {
		t.Fatal(err)
	}

	// Resume: fresh deterministic prelude, then pour the checkpoint in.
	rs, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Step != crashAfter {
		t.Fatalf("checkpoint at step %d, want %d", rs.Step, crashAfter)
	}
	_, ft2, cap2 := resumeSystem(t)
	if err := restore(rs, cap2, &placement.Assignment{Worker: rs.Assignment}); err != nil {
		t.Fatal(err)
	}
	ft2.StartStep = rs.Step
	if ft2.Losses.Len() != crashAfter {
		t.Fatalf("restored %d losses, want %d", ft2.Losses.Len(), crashAfter)
	}
	if err := ft2.Run(totalSteps, nil); err != nil {
		t.Fatal(err)
	}

	if ft2.Losses.Len() != totalSteps {
		t.Fatalf("resumed run recorded %d losses, want %d", ft2.Losses.Len(), totalSteps)
	}
	if !testutil.BitEqualSlices(ref.Losses.Values, ft2.Losses.Values) {
		t.Fatalf("resumed trajectory diverged:\nref    = %v\nresume = %v",
			ref.Losses.Values, ft2.Losses.Values)
	}
}

// TestRestoreRunRejectsMismatchedModel: a checkpoint from a different
// architecture must fail loudly at restore, not corrupt parameters.
func TestRestoreRunRejectsMismatchedModel(t *testing.T) {
	sys, _, cap := resumeSystem(t)
	bad, err := CaptureRun(-1, cap)
	if err != nil {
		t.Fatal(err)
	}
	bad.Backbone = []checkpoint.NamedTensor{{Name: "no.such.param",
		StateTensor: checkpoint.StateTensor{Rows: 1, Cols: 1, Data: []float64{1}}}}
	if err := restore(bad, cap, sys.Exec.Assignment()); err == nil || !strings.Contains(err.Error(), "backbone tensors") {
		t.Fatalf("restore with wrong parameter count/names = %v, want a refusal", err)
	}
}

// TestRestoreRunRejectsWorkerOutsidePool: a generation written by a run
// with more workers than this one places an expert on worker 3 of a
// 2-worker pool — velamaster -resume with a shorter -workers list. The
// restore fails naming the expert and the worker instead of panicking.
func TestRestoreRunRejectsWorkerOutsidePool(t *testing.T) {
	spec := broker.ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	rng := rand.New(rand.NewSource(9))
	grid := [][]*moe.Expert{make([]*moe.Expert, 4)}
	assign := placement.NewAssignment(1, len(grid[0]))
	for e := range grid[0] {
		grid[0][e] = moe.NewExpert(moe.ExpertID{Expert: e}, rng, spec.D, spec.Hidden, false)
		grid[0][e].AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
		assign.Worker[0][e] = e % 2
	}
	dep := broker.StartLocalWorkers(2, broker.DefaultWorkerConfig())
	exec := broker.NewExecutor(dep.Conns, assign)
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	snap, err := exec.SnapshotExperts(0)
	if err != nil {
		t.Fatal(err)
	}
	rs := &checkpoint.RunState{Experts: snap, Assignment: [][]int{{0, 1, 0, 3}}}
	err = restore(rs, &RunCapture{Exec: exec}, &placement.Assignment{Worker: rs.Assignment})
	if err == nil || !strings.Contains(err.Error(), "expert L0/E3") || !strings.Contains(err.Error(), "worker 3") {
		t.Fatalf("err = %v, want one naming expert L0/E3 and worker 3", err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointerSkipsOffBoundarySteps: CheckpointEvery(3) writes only
// at completed-step multiples of 3 — here without a supervisor, so the
// boundary holds a state only when it is to be written.
func TestRunCheckpointerSkipsOffBoundarySteps(t *testing.T) {
	sys, ft, _ := resumeSystem(t)
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	w := checkpoint.NewAsyncWriter(store, nil)
	sys.CheckpointEvery(3, []int64{7}, w)
	if err := ft.Run(7, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries at completed steps 3 and 6; the async writer may skip
	// one if the previous write is still in flight, but never writes off
	// a boundary.
	if len(gens) == 0 || len(gens) > 2 {
		t.Fatalf("generations = %v, want 1..2", gens)
	}
	rs, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Step%3 != 0 {
		t.Fatalf("checkpointed step %d is not a boundary multiple", rs.Step)
	}
}

// sendLog wraps a worker connection and counts the MsgAssign frames sent
// through it: the restore's.
type sendLog struct {
	transport.Conn
	assigns atomic.Int64
}

func (c *sendLog) Send(m *wire.Message) error {
	if m.Type == wire.MsgAssign {
		c.assigns.Add(1)
	}
	return c.Conn.Send(m)
}

// TestRecoverRefusesAWrongRestorePoint: a retry of step s restores the
// held state of boundary s−1, one entry per expert, or nothing. With
// worker 1 dead, so that a restore would also fail it over, the retry
// must refuse no held state, a state of another boundary, one that misses
// an expert the dead worker hosted and one with an expert twice — before
// any restore frame is sent, with no failover or retry counted and the
// assignment unmoved.
func TestRecoverRefusesAWrongRestorePoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		step  int
		edit  func(rs *checkpoint.RunState, orphan checkpoint.ExpertEntry) *checkpoint.RunState
		error string
	}{
		{"no held state", 0, func(*checkpoint.RunState, checkpoint.ExpertEntry) *checkpoint.RunState { return nil }, "no held state"},
		{"snapshot of another boundary", 1, func(rs *checkpoint.RunState, _ checkpoint.ExpertEntry) *checkpoint.RunState { return rs }, "restores boundary 0"},
		{"an expert missing", 0, func(rs *checkpoint.RunState, orphan checkpoint.ExpertEntry) *checkpoint.RunState {
			out := *rs
			out.Experts = &checkpoint.ExpertSnapshot{Step: rs.Experts.Step}
			for _, en := range rs.Experts.Entries {
				if en.Layer != orphan.Layer || en.Expert != orphan.Expert {
					out.Experts.Entries = append(out.Experts.Entries, en)
				}
			}
			return &out
		}, "no entry for"},
		{"an expert twice", 0, func(rs *checkpoint.RunState, orphan checkpoint.ExpertEntry) *checkpoint.RunState {
			out := *rs
			out.Experts = &checkpoint.ExpertSnapshot{Step: rs.Experts.Step, Entries: append(slices.Clone(rs.Experts.Entries), orphan)}
			return &out
		}, "entries for"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, grid, opts, corpus := prelude(t)
			opts.Topo = cluster.Uniform(3, 1, 4, 100*cluster.GB, 1*cluster.GB) // two survivors host all 8 experts
			dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), broker.DefaultWorkerConfig())
			t.Cleanup(func() { dep.Close(); dep.WaitAll() })
			logs := make([]*sendLog, len(dep.Conns))
			conns := make([]transport.Conn, len(dep.Conns))
			for n := range conns {
				logs[n] = &sendLog{Conn: dep.Conns[n]}
				conns[n] = logs[n]
			}
			sys, err := Attach(m, conns, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Distribute(grid); err != nil {
				t.Fatal(err)
			}
			ft, _ := supervised(t, sys, corpus)
			before := sys.Exec.Assignment()
			var orphan checkpoint.ExpertEntry
			for l, row := range before.Worker {
				for e, n := range row {
					if n == 1 {
						orphan = *sys.held.Experts.Find(l, e)
					}
				}
			}
			sys.held = tc.edit(sys.held, orphan)
			sent := func() (n int64) {
				for _, l := range logs {
					n += l.assigns.Load()
				}
				return n
			}
			distributed := sent()
			_ = dep.Conns[1].Close()

			err = ft.Recover(tc.step, errors.New("step failed"))
			if err == nil || !strings.Contains(err.Error(), tc.error) {
				t.Fatalf("recover = %v, want an error naming %q", err, tc.error)
			}
			if n := sent() - distributed; n != 0 {
				t.Fatalf("%d restore frame(s) sent before the refusal", n)
			}
			if sys.Exec.Assignment() != before || sys.Exec.Counters.Get(obs.WorkerFailovers) != 0 || sys.Exec.Counters.Get(obs.StepRetries) != 0 {
				t.Fatal("a refused retry moved the assignment or counted a failover or retry")
			}
		})
	}
}

// TestRecoverRefusesASourceWithoutCursor: a retry re-draws its step's
// batch from the restored position, so a supervised finetuner over a
// batch source that cannot seek is refused when it is built, not when a
// step first fails.
func TestRecoverRefusesASourceWithoutCursor(t *testing.T) {
	m, grid, opts, corpus := prelude(t)
	sys, err := Deploy(m, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Supervisor(broker.SupervisorConfig{})
	ids, targets := data.NewBatcher(corpus, 2, 16, 7).Next()
	ft, err := sys.Finetuner(trainer.NewFixedBatcher(ids, targets, 2, 16))
	if err == nil || ft != nil || !strings.Contains(err.Error(), "data.CursorSource") {
		t.Fatalf("finetuner over a fixed batch = %v, %v; want a refusal naming data.CursorSource", ft, err)
	}
	if got := sys.Exec.Counters.Get(obs.Snapshots); got != 0 {
		t.Fatalf("the refused setup took %d snapshot(s)", got)
	}
}
