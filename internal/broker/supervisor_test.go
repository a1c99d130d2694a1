package broker

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

// uniformProblem builds a valid placement problem over the test grid with
// uniform popularity and generous capacity — the repair path's input.
func uniformProblem(cfg moe.Config, workers int) *placement.Problem {
	p := &placement.Problem{
		Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts,
		P:               make([][]float64, cfg.Layers),
		Bandwidth:       make([]float64, workers),
		Capacity:        make([]int, workers),
		RoutingsPerStep: 64,
		BytesPerToken:   float64(2 * cfg.D),
		WorkerNode:      make([]int, workers),
	}
	for l := range p.P {
		p.P[l] = make([]float64, cfg.Experts)
		for e := range p.P[l] {
			p.P[l][e] = 1.0 / float64(cfg.Layers*cfg.Experts)
		}
	}
	for n := 0; n < workers; n++ {
		p.Bandwidth[n] = 1
		p.Capacity[n] = cfg.Layers * cfg.Experts
		p.WorkerNode[n] = n
	}
	return p
}

// chaosBatcher yields a deterministic sequence of distinct batches, so a
// recovery bug that re-drives a step on the WRONG batch changes the loss
// trace (a FixedBatcher would hide it). It keeps what it drew, and a
// restore rewinds pos to the retried step: a retry re-draws its batch.
type chaosBatcher struct {
	rng           *rand.Rand
	vocab         int
	batch, seqLen int
	drawn         [][2][]int
	pos           int
}

func (b *chaosBatcher) Next() ([]int, []int) {
	if b.pos == len(b.drawn) {
		n := b.batch * b.seqLen
		ids := make([]int, n)
		targets := make([]int, n)
		for i := range ids {
			ids[i] = b.rng.Intn(b.vocab)
			targets[i] = b.rng.Intn(b.vocab)
		}
		b.drawn = append(b.drawn, [2][]int{ids, targets})
	}
	b.pos++
	return b.drawn[b.pos-1][0], b.drawn[b.pos-1][1]
}

func (b *chaosBatcher) Shape() (int, int) { return b.batch, b.seqLen }

// chaosFault is how chaosRun kills workers after step 1's snapshot.
type chaosFault int

const (
	// noFault is the failure-free reference run.
	noFault chaosFault = iota
	// severMidStep arms a Faulty close: the very next frame to the worker
	// (step 2's first broadcast or dispatch) severs the connection, and
	// Recover's own pings find the death.
	severMidStep
	// probeAtBoundary closes the connection at the step boundary and runs
	// one heartbeat round, so Probe marks the worker dead before the
	// training loop touches it: step 2 fails fast on ErrWorkerDead and
	// Recover finds nothing newly dead.
	probeAtBoundary
)

// chaosRun drives a short distributed fine-tune over three workers,
// killing the given workers after step 1 the way fault says, and returns
// the per-step losses plus the executor for state assertions. Workers run
// the production AdamW, so loss equality also requires the VELAEXS2
// snapshot to carry the optimizer moments and step clock
// (TestChaosFailoverAdamWMomentsExact checks those directly).
func chaosRun(t *testing.T, fault chaosFault, kill ...int) ([]float64, *Executor, *Supervisor, []error) {
	t.Helper()
	const steps, workers = 6, 3
	cfg := testConfig()
	model, grid := buildFinetuneSetup(cfg, 11)
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())

	conns := append([]transport.Conn(nil), dep.Conns...)
	var faulty []*transport.Faulty
	if fault == severMidStep {
		for _, n := range kill {
			f := transport.NewFaulty(conns[n], 7, transport.FaultPlan{})
			faulty = append(faulty, f)
			conns[n] = f
		}
	}
	exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
	exec.RequestTimeout = 2 * time.Second
	exec.Counters = obs.NewCounters(nil)
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	model.SetExecutor(exec)

	sup := NewSupervisor(exec, uniformProblem(cfg, workers), SupervisorConfig{})
	backbone := nn.CollectTrainable(model.Params())
	batcher := &chaosBatcher{rng: rand.New(rand.NewSource(31)), vocab: cfg.Vocab, batch: 2, seqLen: 8}
	ft := &trainer.Finetuner{
		Model:      model,
		Backbone:   backbone,
		Opt:        nn.NewAdamW(backbone, nn.PaperAdamWConfig()),
		Batcher:    batcher,
		ExpertZero: exec.ZeroGrads,
		ExpertStep: exec.Step,
		// Every fault lands mid-step, before the backbone steps, so the
		// restore is the experts' and the batch position's.
		Recover: func(step int, _ error) error {
			return sup.Recover(exec.Assignment(), func(next *placement.Assignment) error {
				batcher.pos = step
				return exec.RestoreExperts(sup.Latest().Entries, next)
			})
		},
		OnStep: func(step int) error {
			if err := sup.Checkpoint(step); err != nil {
				return err
			}
			if step != 1 {
				return nil
			}
			// Faults land AFTER the step-1 snapshot.
			for _, f := range faulty {
				f.ArmClose(0)
			}
			if fault == probeAtBoundary {
				for _, n := range kill {
					_ = conns[n].Close()
				}
				sup.Probe()
			}
			return nil
		},
	}
	if err := ft.Run(steps, nil); err != nil {
		t.Fatalf("run (fault %d on %v): %v", fault, kill, err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatalf("shutdown (fault %d on %v): %v", fault, kill, err)
	}
	return ft.Losses.Values, exec, sup, dep.WaitAll()
}

// TestChaosFailoverMatchesFailureFree is the acceptance test of the
// fault-tolerant broker: a worker killed abruptly mid-training must be
// failed over automatically — its experts restored from the latest
// step-boundary snapshot onto survivors — and the run must complete with
// the SAME loss trajectory as a failure-free run, because the trainer
// re-drives the interrupted step on the same batch from the same expert
// state.
func TestChaosFailoverMatchesFailureFree(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")

	clean, _, _, cleanErrs := chaosRun(t, noFault)
	for n, err := range cleanErrs {
		if err != nil {
			t.Fatalf("failure-free worker %d exited with %v", n, err)
		}
	}

	chaos, exec, sup, chaosErrs := chaosRun(t, severMidStep, 2)

	if len(clean) != len(chaos) {
		t.Fatalf("step counts differ: %d vs %d", len(clean), len(chaos))
	}
	for s := range clean {
		if !testutil.Close(clean[s], chaos[s]) {
			t.Errorf("step %d loss diverged after failover: %.12f vs %.12f", s, clean[s], chaos[s])
		}
	}

	// The dead worker is out of rotation and hosts nothing in the
	// assignment; survivors absorbed its experts within capacity.
	if exec.Alive(2) {
		t.Fatal("killed worker must be marked dead")
	}
	prob := uniformProblem(testConfig(), 3)
	assign := exec.Assignment()
	if err := assign.Validate(prob); err != nil {
		t.Fatalf("post-failover assignment invalid: %v", err)
	}
	for l, row := range assign.Worker {
		for e, n := range row {
			if n == 2 {
				t.Fatalf("expert L%d/E%d still assigned to dead worker", l, e)
			}
		}
	}

	rc := exec.Counters
	if n := rc.Get(obs.WorkerFailovers); n != 1 {
		t.Fatalf("WorkerFailovers = %d, want 1", n)
	}
	if n := rc.Get(obs.ExpertsRecovered); n != 3 { // round-robin puts expert 2 of each of 3 layers on worker 2
		t.Fatalf("ExpertsRecovered = %d, want 3", n)
	}
	if n := rc.Get(obs.StepRetries); n < 1 {
		t.Fatalf("StepRetries = %d, want >= 1", n)
	}
	if n := rc.Get(obs.Snapshots); n < 6 {
		t.Fatalf("Snapshots = %d, want one per step", n)
	}
	if sup.Latest() == nil || sup.Latest().Step != 5 {
		t.Fatalf("latest snapshot = %+v, want step 5", sup.Latest())
	}

	// Exactly the killed worker's serve loop errored; survivors shut
	// down cleanly.
	for n, err := range chaosErrs {
		if n == 2 && err == nil {
			t.Error("killed worker must exit with an error")
		}
		if n != 2 && err != nil {
			t.Errorf("surviving worker %d exited with %v", n, err)
		}
	}
}

// TestChaosFailoverVariants runs the chaos shape over the other ways
// workers are lost in one step. Each must finish with the failure-free
// loss series, count one failover per lost worker and restore every
// expert it hosted (round-robin: three per worker).
func TestChaosFailoverVariants(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	clean, _, _, _ := chaosRun(t, noFault)
	for _, tc := range []struct {
		name  string
		fault chaosFault
		kill  []int
	}{
		{"two workers die in one step", severMidStep, []int{1, 2}},
		{"two probe-detected deaths", probeAtBoundary, []int{1, 2}},
	} {
		chaos, exec, _, _ := chaosRun(t, tc.fault, tc.kill...)
		if !testutil.BitEqualSlices(clean, chaos) {
			t.Errorf("%s: loss series diverged from the failure-free run:\n%v\n%v", tc.name, clean, chaos)
		}
		lost := int64(len(tc.kill))
		if n := exec.Counters.Get(obs.WorkerFailovers); n != lost {
			t.Errorf("%s: WorkerFailovers = %d, want %d", tc.name, n, lost)
		}
		if n := exec.Counters.Get(obs.ExpertsRecovered); n != 3*lost {
			t.Errorf("%s: ExpertsRecovered = %d, want %d", tc.name, n, 3*lost)
		}
		if n := exec.Counters.Get(obs.StepRetries); n != 1 {
			t.Errorf("%s: StepRetries = %d, want 1", tc.name, n)
		}
	}
}

// TestProbeDetectedDeathIsFailedOver: a worker the heartbeat loop marks
// dead between two steps is not "newly dead" to Recover, but its experts
// are just as orphaned. The next step fails fast on ErrWorkerDead and
// Recover must fail the worker over — not call the failure transient,
// retry against the dead worker and abort the run.
func TestProbeDetectedDeathIsFailedOver(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	clean, _, _, _ := chaosRun(t, noFault)
	chaos, exec, _, _ := chaosRun(t, probeAtBoundary, 2)
	if !testutil.BitEqualSlices(clean, chaos) {
		t.Fatalf("loss series diverged from the failure-free run:\n%v\n%v", clean, chaos)
	}
	if exec.Alive(2) {
		t.Fatal("probed worker must stay dead")
	}
	for l, row := range exec.Assignment().Worker {
		for e, n := range row {
			if n == 2 {
				t.Fatalf("expert L%d/E%d still assigned to dead worker", l, e)
			}
		}
	}
	rc := exec.Counters
	if failovers, experts, retries := rc.Get(obs.WorkerFailovers), rc.Get(obs.ExpertsRecovered), rc.Get(obs.StepRetries); failovers != 1 || experts != 3 || retries != 1 {
		t.Fatalf("%d failover(s), %d expert(s) recovered, %d step retries; want 1, 3, 1", failovers, experts, retries)
	}
}

// TestSupervisorHeartbeatDetectsWedgedWorker: a worker that still
// accepts frames but never answers (receive-side partition) is detected
// by consecutive missed heartbeats and marked dead — heartbeats convert
// gray failures into fast failures.
func TestSupervisorHeartbeatDetectsWedgedWorker(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	wedged := transport.NewFaulty(dep.Conns[0], 3, transport.FaultPlan{PartitionRecv: true})
	cfg := testConfig()
	exec := NewExecutor([]transport.Conn{wedged}, roundRobinAssignment(cfg, 1))
	exec.RequestTimeout = 20 * time.Millisecond // each probe fails after its in-round retries
	exec.Counters = obs.NewCounters(nil)
	sup := NewSupervisor(exec, uniformProblem(cfg, 1), SupervisorConfig{})

	sup.Probe()
	if !exec.Alive(0) {
		t.Fatal("one missed heartbeat must not kill the worker")
	}
	sup.Probe()
	if exec.Alive(0) {
		t.Fatal("two consecutive missed heartbeats must mark the worker dead")
	}
	if answered, missed := exec.Counters.Get(obs.HeartbeatsAnswered), exec.Counters.Get(obs.HeartbeatsMissed); answered != 0 || missed != 2 {
		t.Fatalf("heartbeats: %d answered, %d missed, want 0 and 2", answered, missed)
	}
	dep.Close()
	_ = dep.WaitAll()
}

// TestSupervisorHeartbeatLoopStopsCleanly: Start/Stop must not leak the
// heartbeat goroutine, and a healthy worker is never marked dead.
func TestSupervisorHeartbeatLoopStopsCleanly(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	cfg := testConfig()
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 1))
	exec.RequestTimeout = time.Second
	exec.Counters = obs.NewCounters(nil)
	sup := NewSupervisor(exec, uniformProblem(cfg, 1), SupervisorConfig{HeartbeatInterval: 5 * time.Millisecond})
	sup.Start()
	time.Sleep(40 * time.Millisecond)
	sup.Stop()
	sup.Stop() // idempotent
	if !exec.Alive(0) {
		t.Fatal("healthy worker was marked dead by heartbeats")
	}
	if answered, missed := exec.Counters.Get(obs.HeartbeatsAnswered), exec.Counters.Get(obs.HeartbeatsMissed); answered == 0 || missed != 0 {
		t.Fatalf("heartbeats: %d answered, %d missed, want some and 0", answered, missed)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWithoutSnapshotFails: a fatal failure before the first
// checkpoint cannot be repaired. Recover still finds the dead worker and
// re-places its experts, but when the restore refuses (here: no snapshot
// to restore from) it adopts nothing and counts neither a failover nor a
// retry.
func TestRecoverWithoutSnapshotFails(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 13)
	dep := StartLocalWorkers(2, WorkerConfig{})
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	exec.Counters = obs.NewCounters(nil)
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(exec, uniformProblem(cfg, 2), SupervisorConfig{})
	_ = dep.Conns[1].Close()
	before := exec.Assignment()
	errNoSnapshot := errors.New("no snapshot to restore")
	var repaired *placement.Assignment
	err := sup.Recover(before, func(next *placement.Assignment) error {
		repaired = next
		if sup.Latest() == nil {
			return errNoSnapshot
		}
		return exec.RestoreExperts(sup.Latest().Entries, next)
	})
	if !errors.Is(err, errNoSnapshot) || exec.Alive(1) {
		t.Fatalf("recover = %v, alive(1) = %v; want the snapshot error and a dead worker", err, exec.Alive(1))
	}
	if repaired == nil || repaired.Loads(2)[1] != 0 {
		t.Fatalf("restore was offered %v, want the assignment repaired off worker 1", repaired)
	}
	if exec.Assignment() != before || exec.Counters.Get(obs.WorkerFailovers) != 0 || exec.Counters.Get(obs.StepRetries) != 0 {
		t.Fatal("a refused restore moved the assignment or counted a failover or retry")
	}
	dep.Close()
	_ = dep.WaitAll()
}
