package broker

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestInstrumentedExchangeLifecycle drives fine-tuning steps through a
// fully instrumented deployment (one handle shared by executor, workers,
// gate, and trainer-style spans) and asserts the whole exchange
// lifecycle landed in the observability layer: enqueue→send→compute→
// reply→decode trace events, per-worker latency and compute histograms,
// frame-size histograms, straggler gaps, and gate routing in the drift
// monitor.
func TestInstrumentedExchangeLifecycle(t *testing.T) {
	cfg := testConfig()
	const workers = 3
	m, grid := buildFinetuneSetup(cfg, 7)

	handle := obs.NewHandle(obs.Config{Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts})
	baseline := make([][]float64, cfg.Layers)
	for l := range baseline {
		baseline[l] = make([]float64, cfg.Experts)
		for e := range baseline[l] {
			baseline[l][e] = 1 / float64(cfg.Experts)
		}
	}
	handle.Drift.SetBaseline(baseline)

	dep := StartLocalWorkers(workers, WorkerConfig{Optimizer: OptAdamW, Obs: handle})
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
	exec.Obs = handle
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(exec)
	m.SetObs(handle)

	rng := rand.New(rand.NewSource(5))
	const batch, seq = 2, 6
	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}

	const steps = 2
	for s := 0; s < steps; s++ {
		handle.StartStep(s)
		logits, err := m.Forward(ids, batch, seq)
		if err != nil {
			t.Fatal(err)
		}
		_, dl := nn.NewLoss().CrossEntropy(logits, targets)
		if err := m.Backward(dl); err != nil {
			t.Fatal(err)
		}
		handle.EndStep()
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}

	// Every lifecycle kind appears in the trace.
	kinds := map[obs.EventKind]int{}
	for _, ev := range handle.Trace.Snapshot() {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.EventKind{obs.EvEnqueue, obs.EvSend, obs.EvCompute, obs.EvReply, obs.EvDecode, obs.EvSpan} {
		if kinds[k] == 0 {
			t.Errorf("no %v events traced (kinds: %v)", k, kinds)
		}
	}

	// One request per worker per round: every decode belongs to a
	// multi-expert frame, and a (step, layer, worker) sees exactly the
	// forward and the backward frame.
	decodes := map[[3]int32]int{}
	for _, ev := range handle.Trace.Snapshot() {
		if ev.Kind != obs.EvDecode {
			continue
		}
		if ev.Expert != wire.ExpertCoalesced {
			t.Errorf("decode event for single expert %d, want a frame-level event", ev.Expert)
		}
		decodes[[3]int32{int32(ev.Step), ev.Layer, ev.Worker}]++
	}
	for k, c := range decodes {
		if c != 2 {
			t.Errorf("step %d layer %d worker %d: %d exchange requests, want 2 (forward + backward)", k[0], k[1], k[2], c)
		}
	}

	// Forward + backward exchanges per layer per step.
	wantRounds := uint64(2 * cfg.Layers * steps)
	var spans uint64
	for _, st := range handle.Breakdown() {
		if st.Phase == obs.PhaseExchange {
			spans = st.Count
		}
	}
	if spans != wantRounds {
		t.Errorf("exchange spans = %d, want %d", spans, wantRounds)
	}

	// Per-worker request latency and compute observations: round-robin
	// placement touches every worker every round.
	for n := 0; n < workers; n++ {
		if handle.ReqLatency[n].Count() == 0 {
			t.Errorf("worker %d: no request-latency observations", n)
		}
		if handle.Compute[n].Count() == 0 {
			t.Errorf("worker %d: no compute observations", n)
		}
		if handle.StragglerGap[n].Count() == 0 {
			t.Errorf("worker %d: no straggler-gap observations", n)
		}
	}
	if handle.QueueWait.Count() == 0 || handle.FrameTx.Count() == 0 || handle.FrameRx.Count() == 0 {
		t.Error("queue-wait or frame histograms stayed empty")
	}
	// Replies must be matched: at most as many latency points as sends.
	if handle.FrameRx.Count() > handle.FrameTx.Count() {
		t.Errorf("more replies (%d) than requests (%d) metered", handle.FrameRx.Count(), handle.FrameTx.Count())
	}

	// The gate fed the drift monitor every layer and the EWMA moved off
	// exact-zero steps.
	if got := handle.Steps(); got != steps {
		t.Errorf("drift steps = %d, want %d", got, steps)
	}
	if drift := handle.Drift.Drift(); len(drift) != cfg.Layers {
		t.Errorf("drift has %d layers, want %d", len(drift), cfg.Layers)
	}

	// Breakdown renders and mentions the exchange phase and the drift.
	var sb strings.Builder
	if err := obs.WriteReport(&sb, obs.Source{Handle: handle}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "expert-exchange") || !strings.Contains(out, "placement drift") {
		t.Errorf("breakdown output missing sections:\n%s", out)
	}

	testutil.VerifyNoLeaks(t, "repro/internal/broker")
}

// benchGeometry is the paper's measurement-study exchange shape: the
// TinyMistral layer width with top-2 routing over 6 experts on 3
// workers, batch 8 × 224 tokens split across the chosen experts.
func benchSetup(b *testing.B, handle *obs.Handle) (*Executor, *LocalDeployment, map[int]*tensor.Tensor) {
	b.Helper()
	cfg := testConfig()
	cfg.D, cfg.Hidden, cfg.Experts = 32, 64, 6
	const workers = 3
	_, grid := buildFinetuneSetup(cfg, 7)

	wcfg := DefaultWorkerConfig()
	wcfg.Obs = handle
	dep := StartLocalWorkers(workers, wcfg)
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
	exec.Obs = handle
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := exec.Distribute(grid, spec); err != nil {
		b.Fatal(err)
	}

	// 8×224 tokens, top-2: ~3584 routings spread over the layer's experts.
	rng := rand.New(rand.NewSource(3))
	tokensPerExpert := 8 * 224 * 2 / cfg.Experts
	batches := make(map[int]*tensor.Tensor, cfg.Experts)
	for e := 0; e < cfg.Experts; e++ {
		batches[e] = tensor.Randn(rng, 1, tokensPerExpert, cfg.D)
	}
	return exec, dep, batches
}

func benchExchange(b *testing.B, handle *obs.Handle) {
	exec, dep, batches := benchSetup(b, handle)
	defer func() {
		if err := exec.Shutdown(); err != nil {
			b.Fatal(err)
		}
		if err := dep.Wait(); err != nil {
			b.Fatal(err)
		}
	}()
	// One warmup round outside the timer.
	if _, err := exec.ForwardExperts(0, batches); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ForwardExperts(0, batches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsExchangeUninstrumented is the baseline: the same exchange
// with a nil handle (hooks cost one branch).
func BenchmarkObsExchangeUninstrumented(b *testing.B) {
	benchExchange(b, nil)
}

// BenchmarkObsExchangeInstrumented runs the full scatter/gather round
// with tracing, histograms, and straggler accounting live. Comparing
// ns/op against the uninstrumented twin (go test -run '^$' -bench
// ObsExchange ./internal/broker) is the <2%-overhead acceptance check.
func BenchmarkObsExchangeInstrumented(b *testing.B) {
	handle := obs.NewHandle(obs.Config{Workers: 3, Layers: 3, Experts: 6})
	benchExchange(b, handle)
}

// BenchmarkObsHooksPerRequest isolates the per-request hook cost itself
// (enqueue+send+reply+decode+compute on a live handle) without the
// broker around it, so regressions in the hooks are visible even when
// the exchange benchmark is dominated by expert compute.
func BenchmarkObsHooksPerRequest(b *testing.B) {
	handle := obs.NewHandle(obs.Config{Workers: 3, Layers: 3, Experts: 6})
	msg := &wire.Message{Type: wire.MsgForwardMulti, Tensors: []wire.Matrix{{Rows: 224, Cols: 32, Data: make([]float64, 224*32)}}}
	size := wire.EncodedSize(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i)
		handle.OnEnqueue(0, 1, 2, 0)
		handle.OnSend(0, 1, 2, seq, size)
		handle.OnReply(0, seq, size)
		handle.OnDecode(0, 1, 2, seq, 0)
		handle.OnCompute(0, 1, 2, 3, 0)
	}
}
