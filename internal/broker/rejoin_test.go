package broker

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestWorkerRejoinServesTraffic is the regression test for the
// supervisor's terminal-death fix: a worker that died and came back is
// re-admitted (MarkAlive + heartbeat re-arm) and actually serves expert
// traffic again — before the rejoin path existed, a dead slot stayed
// dead for the life of the run.
func TestWorkerRejoinServesTraffic(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 19)
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	exec.RequestTimeout = 2 * time.Second
	exec.Counters = obs.NewCounters(nil)
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(exec, uniformProblem(cfg, 2), SupervisorConfig{})
	if err := sup.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	// Kill worker 1 and bring up a replacement Expert Manager.
	exec.MarkDead(1)
	if exec.Alive(1) {
		t.Fatal("MarkDead must take")
	}
	dep2 := StartLocalWorkers(1, DefaultWorkerConfig())
	var rejoined []int
	sup.OnRejoin = func(n int) { rejoined = append(rejoined, n) }
	if err := sup.rejoin(1, dep2.Conns[0]); err != nil {
		t.Fatal(err)
	}
	if !exec.Alive(1) {
		t.Fatal("rejoined worker must be alive")
	}
	if len(rejoined) != 1 || rejoined[0] != 1 {
		t.Fatalf("OnRejoin saw %v, want [1]", rejoined)
	}
	if n := exec.Counters.Get(obs.WorkerRejoins); n != 1 {
		t.Fatalf("WorkerRejoins = %d, want 1", n)
	}

	// Heartbeat re-arm: the next probe must ping the new connection and
	// keep the worker alive, not count stale misses toward death.
	sup.Probe()
	if !exec.Alive(1) {
		t.Fatal("probe after rejoin must not kill the worker")
	}

	// The replacement is empty; restore its experts from the snapshot
	// (the run-level resume path) and drive traffic through it.
	assign := roundRobinAssignment(cfg, 2)
	var entries []checkpoint.ExpertEntry
	for _, e := range sup.Latest().Entries {
		if assign.Worker[e.Layer][e.Expert] == 1 {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		t.Fatal("no experts were assigned to worker 1")
	}
	if err := exec.RestoreExperts(entries, assign); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	batches := map[int]*tensor.Tensor{
		1: tensor.Randn(rng, 1, 4, cfg.D),
		3: tensor.Randn(rng, 1, 4, cfg.D),
	}
	out, err := exec.ForwardExperts(0, batches)
	if err != nil {
		t.Fatalf("forward through rejoined worker: %v", err)
	}
	if out[1] == nil || out[3] == nil {
		t.Fatalf("rejoined worker served %d experts, want 2", len(out))
	}

	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	dep.Close()
	dep2.Close()
	_ = dep.WaitAll()
	_ = dep2.WaitAll()
}

// TestSupervisorRedialAndAdmitRejoins covers the automatic path: the
// heartbeat probe redials a dead worker, parks the handshaken connection,
// and the training goroutine folds it back in at a step boundary.
func TestSupervisorRedialAndAdmitRejoins(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	cfg := testConfig()
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	exec.RequestTimeout = 2 * time.Second
	exec.Counters = obs.NewCounters(nil)
	sup := NewSupervisor(exec, uniformProblem(cfg, 2), SupervisorConfig{})

	exec.MarkDead(1)
	dep2 := StartLocalWorkers(1, DefaultWorkerConfig())
	dials := 0
	sup.Redial = func(n int) (transport.Conn, error) {
		if n != 1 {
			return nil, errors.New("unexpected worker")
		}
		dials++
		return dep2.Conns[0], nil
	}

	sup.Probe() // dials, handshakes, parks
	if exec.Alive(1) {
		t.Fatal("probe must not admit mid-round; admission happens at step boundaries")
	}
	sup.Probe() // pending already exists: no second dial
	if dials != 1 {
		t.Fatalf("redial ran %d times, want 1 (pending connection must suppress re-dials)", dials)
	}

	admitted := sup.AdmitRejoins()
	if len(admitted) != 1 || admitted[0] != 1 {
		t.Fatalf("admitted %v, want [1]", admitted)
	}
	if !exec.Alive(1) {
		t.Fatal("admitted worker must be alive")
	}
	if err := exec.Ping(1); err != nil {
		t.Fatalf("ping after admission: %v", err)
	}
	if sup.AdmitRejoins() != nil {
		t.Fatal("nothing left to admit")
	}

	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	dep.Close()
	dep2.Close()
	_ = dep.WaitAll()
	_ = dep2.WaitAll()
}

// TestChaosFailoverAdamWMomentsExact: with VELAEXS2 snapshots carrying
// the AdamW moments and step clock, the experts restored onto survivors
// step from exactly the moments they had at the last boundary. Beyond
// the loss series, every expert's final snapshot — parameters, moments
// and clock — must equal the failure-free run's bit for bit.
func TestChaosFailoverAdamWMomentsExact(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	clean, _, cleanSup, _ := chaosRun(t, noFault)
	chaos, _, chaosSup, _ := chaosRun(t, severMidStep, 2)
	if !testutil.BitEqualSlices(clean, chaos) {
		t.Fatalf("AdamW failover diverged:\nclean = %v\nchaos = %v", clean, chaos)
	}
	want, got := cleanSup.Latest(), chaosSup.Latest()
	if want == nil || got == nil || want.Step != got.Step || len(want.Entries) != len(got.Entries) {
		t.Fatalf("final snapshots differ in shape: clean %+v, chaos %+v", want, got)
	}
	for _, w := range want.Entries {
		g := got.Find(w.Layer, w.Expert)
		if g == nil || len(g.Tensors) != len(w.Tensors) {
			t.Fatalf("L%d/E%d: chaos snapshot entry %+v, want %d tensors", w.Layer, w.Expert, g, len(w.Tensors))
		}
		for i := range w.Tensors {
			if !testutil.BitEqualSlices(w.Tensors[i].Data, g.Tensors[i].Data) {
				t.Fatalf("L%d/E%d tensor %d diverged after failover", w.Layer, w.Expert, i)
			}
		}
	}
}

// TestExpertStateCodecMomentsRoundTrip drives the VELAEXS2 wire format
// end to end at the worker level: step an expert under AdamW, snapshot
// it, re-assign the snapshot into a fresh worker, and verify the next
// identical step produces bit-identical parameters on both. The fresh
// worker is built from the zero WorkerConfig: the optimizer is not part
// of a worker's configuration, so it steps exactly as the default's.
func TestExpertStateCodecMomentsRoundTrip(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 1, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 23)
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}

	w1 := NewWorker(0, DefaultWorkerConfig())
	if reply, _ := w1.handle(encodeExpert(grid[0][0], spec)); reply.Type != wire.MsgAck {
		t.Fatalf("assign: %v", reply.Type)
	}
	seedGrads := func(w *Worker) {
		for _, p := range w.params() {
			if p.Trainable {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = 0.25
				}
			}
		}
	}
	step := func(w *Worker) {
		t.Helper()
		if reply, _ := w.handle(&wire.Message{Type: wire.MsgStep}); reply.Type != wire.MsgAck {
			t.Fatalf("step: %v", reply.Type)
		}
	}
	seedGrads(w1)
	step(w1)

	snap, _ := w1.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
	if snap.Type != wire.MsgSnapshotResult {
		t.Fatalf("snapshot: %v", snap.Type)
	}
	// A snapshot becomes an assign frame on restore: the master puts the
	// frozen weights back between the trainable ones it carries.
	master := NewExecutor(nil, nil)
	master.SetBase(grid)
	full, err := master.compose(grid[0][0].ID, snap.Tensors)
	if err != nil {
		t.Fatal(err)
	}
	asAssign := &wire.Message{Type: wire.MsgAssign, Layer: snap.Layer, Expert: snap.Expert, Tensors: full}
	_, en, err := decodeExpertState(asAssign, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := en.opt
	if st == nil || st.Step != 1 || len(st.M) == 0 || len(st.M) != len(st.V) {
		t.Fatalf("decoded opt state = %+v, want step 1 with moment pairs", st)
	}
	var nonzero bool
	for _, m := range st.M {
		for _, v := range m.Data {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("first-moment payload is all zeros after a step")
	}

	// Re-assign the snapshot into a fresh worker and step both again on
	// identical gradients: parameters must land bit-identically, which
	// only happens if the moments AND the bias-correction clock survived.
	w2 := NewWorker(1, WorkerConfig{})
	if reply, _ := w2.handle(asAssign); reply.Type != wire.MsgAck {
		t.Fatalf("re-assign: %v", reply.Type)
	}
	seedGrads(w1)
	seedGrads(w2)
	step(w1)
	step(w2)
	s1, _ := w1.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
	s2, _ := w2.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
	if len(s1.Tensors) != len(s2.Tensors) {
		t.Fatalf("snapshot tensor counts differ: %d vs %d", len(s1.Tensors), len(s2.Tensors))
	}
	for i := range s1.Tensors {
		if !testutil.BitEqualSlices(s1.Tensors[i].Data, s2.Tensors[i].Data) {
			t.Fatalf("tensor %d diverged after transplanted step — moments did not survive the trip", i)
		}
	}
}
