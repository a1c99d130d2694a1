package broker

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testConfig() moe.Config {
	return moe.Config{Vocab: 24, D: 8, Heads: 2, Hidden: 12, Layers: 3, Experts: 4, TopK: 2}
}

// buildFinetuneSetup constructs a frozen pre-trained-style model with LoRA
// everywhere (except gates), deterministically from seeds.
func buildFinetuneSetup(cfg moe.Config, seed int64) (*moe.Model, [][]*moe.Expert) {
	rng := rand.New(rand.NewSource(seed))
	m := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	m.Freeze()
	for _, row := range grid {
		for _, e := range row {
			for _, p := range e.Params() {
				p.Trainable = false
			}
		}
	}
	loraRng := rand.New(rand.NewSource(seed + 1))
	m.AttachLoRA(loraRng, 2, 4)
	for _, row := range grid {
		for _, e := range row {
			e.AttachLoRA(loraRng, 2, 4)
		}
	}
	return m, grid
}

func roundRobinAssignment(cfg moe.Config, workers int) *placement.Assignment {
	a := placement.NewAssignment(cfg.Layers, cfg.Experts)
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.Experts; e++ {
			a.Worker[l][e] = e % workers
		}
	}
	return a
}

// multiFrame builds the dispatch frame the master sends a worker: an
// expert-id row followed by one batch per named expert.
func multiFrame(backward bool, layer int, experts []int, batches ...wire.Matrix) *wire.Message {
	typ := wire.MsgForwardMulti
	if backward {
		typ = wire.MsgBackwardMulti
	}
	ids := wire.Matrix{Rows: 1, Cols: len(experts), Data: make([]float64, len(experts))}
	for i, e := range experts {
		ids.Data[i] = float64(e)
	}
	return &wire.Message{Type: typ, Layer: int32(layer), Expert: wire.ExpertCoalesced,
		Tensors: append([]wire.Matrix{ids}, batches...)}
}

func TestExpertCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := moe.NewExpert(moe.ExpertID{Layer: 2, Expert: 1}, rng, 6, 10, true)
	e.AttachLoRA(rng, 2, 8)
	spec := ExpertSpec{D: 6, Hidden: 10, LoRARank: 2, LoRAAlpha: 8}
	msg := encodeExpert(e, spec)
	got, en, err := decodeExpertState(msg)
	if err != nil {
		t.Fatal(err)
	}
	if en.spec != spec {
		t.Fatalf("spec mismatch: %+v vs %+v", en.spec, spec)
	}
	if got.ID != e.ID {
		t.Fatalf("ID mismatch: %v vs %v", got.ID, e.ID)
	}
	// Same forward output on the same input.
	x := tensor.Randn(rng, 1, 3, 6)
	want := e.Forward(x)
	have := got.Forward(x)
	for i := range want.Data {
		if !testutil.BitEqual(want.Data[i], have.Data[i]) {
			t.Fatal("decoded expert diverges from original")
		}
	}
}

func TestDecodeExpertRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := ExpertSpec{D: 4, Hidden: 6}
	good := func() *wire.Message {
		return encodeExpert(moe.NewExpert(moe.ExpertID{}, rng, spec.D, spec.Hidden, true), spec)
	}
	if _, _, err := decodeExpertState(good()); err != nil {
		t.Fatalf("well-formed assign rejected: %v", err)
	}
	// The retired pre-moments layout: a 4-column meta row over otherwise
	// well-formed parameters.
	legacy := good()
	legacy.Tensors[0] = wire.Matrix{Rows: 1, Cols: 4, Data: legacy.Tensors[0].Data[:4]}
	emptyMeta := good()
	emptyMeta.Tensors[0] = wire.Matrix{Rows: 0, Cols: 6}
	for name, m := range map[string]*wire.Message{
		"wrong type":       {Type: wire.MsgForwardMulti},
		"missing metadata": {Type: wire.MsgAssign},
		"legacy 4-col row": legacy,
		"0x6 meta row":     emptyMeta,
		"missing params": {Type: wire.MsgAssign,
			Tensors: []wire.Matrix{{Rows: 1, Cols: 6, Data: []float64{4, 8, 0, 0, 0, 0}}}},
	} {
		if _, _, err := decodeExpertState(m); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}

func TestWorkerForwardMatchesLocalExpert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: 0}, rng, 6, 10, true)
	spec := ExpertSpec{D: 6, Hidden: 10}

	w := NewWorker(0, DefaultWorkerConfig())
	reply, done := w.handle(encodeExpert(ref, spec))
	if done || reply.Type != wire.MsgAck {
		t.Fatalf("assign reply %v", reply.Type)
	}
	if w.NumExperts() != 1 {
		t.Fatal("expert not registered")
	}

	x := tensor.Randn(rng, 1, 4, 6)
	fwd := multiFrame(false, 0, []int{0}, wire.Matrix{Rows: 4, Cols: 6, Data: append([]float64(nil), x.Data...)})
	fwd.Seq = 5
	reply, _ = w.handle(fwd)
	if reply.Type != wire.MsgForwardMultiResult || len(reply.Tensors) != 2 {
		t.Fatalf("forward reply %v (%d tensors): %s", reply.Type, len(reply.Tensors), reply.Text)
	}
	want := ref.Forward(x)
	for i, v := range want.Data {
		if !testutil.BitEqual(reply.Tensors[1].Data[i], v) {
			t.Fatal("worker forward diverges from local expert")
		}
	}
	if reply.Seq != 5 {
		t.Fatal("seq not echoed")
	}
}

// TestWorkerErrorsOnUnexpectedMessage: reply types and numbers no type
// holds are not served — each gets one MsgError.
func TestWorkerErrorsOnUnexpectedMessage(t *testing.T) {
	w := NewWorker(0, DefaultWorkerConfig())
	for _, typ := range []wire.MsgType{wire.MsgForwardMultiResult, wire.MsgSnapshotResult,
		wire.MsgPong, 0, wire.MsgTraceFetchResult + 1} {
		reply, done := w.handle(&wire.Message{Type: typ,
			Tensors: []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{0}}}})
		if done || reply.Type != wire.MsgError || !strings.Contains(reply.Text, "unexpected message") {
			t.Fatalf("%v: reply = %v %q, want unexpected-message error", typ, reply.Type, reply.Text)
		}
	}
}

// TestBrokeredForwardMatchesLocal: the same model must produce
// bit-identical logits whether experts run locally or behind the broker.
func TestBrokeredForwardMatchesLocal(t *testing.T) {
	cfg := testConfig()
	mLocal, gridLocal := buildFinetuneSetup(cfg, 7)
	mBrok, gridBrok := buildFinetuneSetup(cfg, 7)

	mLocal.BindLocalExperts(gridLocal)

	const workers = 3
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	assign := roundRobinAssignment(cfg, workers)
	exec := NewExecutor(dep.Conns, assign)
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := exec.Distribute(gridBrok, spec); err != nil {
		t.Fatal(err)
	}
	mBrok.SetExecutor(exec)

	ids := make([]int, 2*6)
	for i := range ids {
		ids[i] = (i * 5) % cfg.Vocab
	}
	lo, err := mLocal.Forward(ids, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	br, err := mBrok.Forward(ids, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lo.Data {
		if !testutil.BitEqual(lo.Data[i], br.Data[i]) {
			t.Fatalf("logit %d differs: %v vs %v", i, lo.Data[i], br.Data[i])
		}
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokeredFineTuningMatchesLocal is the convergence-equivalence claim
// of §V-A ("fine-tuning MoE models with Vela produces the same convergence
// results as traditional fine-tuning"): several LoRA fine-tuning steps
// through the broker must produce exactly the same losses as the local
// reference.
func TestBrokeredFineTuningMatchesLocal(t *testing.T) {
	cfg := testConfig()
	const workers = 3
	const steps = 4
	const batch, seq = 2, 5

	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	rng := rand.New(rand.NewSource(99))
	for i := range ids {
		ids[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}

	runLocal := func() []float64 {
		m, grid := buildFinetuneSetup(cfg, 7)
		exec := m.BindLocalExperts(grid)
		params := append(nn.CollectTrainable(m.Params()), nn.CollectTrainable(exec.Params())...)
		opt := nn.NewAdamW(params, nn.PaperAdamWConfig())
		var losses []float64
		for s := 0; s < steps; s++ {
			nn.ZeroGrads(params)
			logits, err := m.Forward(ids, batch, seq)
			if err != nil {
				t.Fatal(err)
			}
			loss, dl := nn.NewLoss().CrossEntropy(logits, targets)
			losses = append(losses, loss)
			if err := m.Backward(dl); err != nil {
				t.Fatal(err)
			}
			opt.Step()
		}
		return losses
	}

	runBrokered := func() []float64 {
		m, grid := buildFinetuneSetup(cfg, 7)
		dep := StartLocalWorkers(workers, DefaultWorkerConfig())
		exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
		spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
		if err := exec.Distribute(grid, spec); err != nil {
			t.Fatal(err)
		}
		m.SetExecutor(exec)
		backbone := nn.CollectTrainable(m.Params())
		opt := nn.NewAdamW(backbone, nn.PaperAdamWConfig())
		var losses []float64
		for s := 0; s < steps; s++ {
			nn.ZeroGrads(backbone)
			if err := exec.ZeroGrads(); err != nil {
				t.Fatal(err)
			}
			logits, err := m.Forward(ids, batch, seq)
			if err != nil {
				t.Fatal(err)
			}
			loss, dl := nn.NewLoss().CrossEntropy(logits, targets)
			losses = append(losses, loss)
			if err := m.Backward(dl); err != nil {
				t.Fatal(err)
			}
			opt.Step()
			if err := exec.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := exec.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := dep.Wait(); err != nil {
			t.Fatal(err)
		}
		return losses
	}

	local := runLocal()
	brok := runBrokered()
	for s := range local {
		if math.Abs(local[s]-brok[s]) > 1e-12 {
			t.Fatalf("step %d loss diverges: local %.12f vs brokered %.12f", s, local[s], brok[s])
		}
	}
	// Losses should actually change across steps (training is happening).
	if testutil.BitEqual(local[0], local[steps-1]) {
		t.Fatal("losses identical across steps — optimizer not applied?")
	}
}

func TestTrafficAccounting(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	m, grid := buildFinetuneSetup(cfg, 3)
	const workers = 2
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	assign := roundRobinAssignment(cfg, workers)
	exec := NewExecutor(dep.Conns, assign)
	exec.Counters = obs.NewCounters([]bool{false, true})
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(exec)

	const batch, seq = 1, 6
	ids := []int{1, 2, 3, 4, 5, 6}
	if _, err := m.Forward(ids, batch, seq); err != nil {
		t.Fatal(err)
	}
	ctr := exec.Counters
	for n := 0; n < workers; n++ {
		out, in := ctr.Worker(obs.TrafficTokensTo, n), ctr.Worker(obs.TrafficTokensFrom, n)
		// Returned tokens must equal dispatched tokens per worker.
		if out != in {
			t.Fatalf("worker %d token conservation violated: %d out, %d in", n, out, in)
		}
		// Logical bytes = tokens × D × 2 (fp16).
		if got := ctr.Worker(obs.TrafficBytesTo, n); got != out*int64(cfg.D)*2 {
			t.Fatalf("worker %d byte accounting wrong: %d bytes for %d tokens", n, got, out)
		}
		// One frame per direction per worker that was sent anything —
		// however many experts the frame carried — so the count reconciles
		// with vela_frame_bytes_count.
		want := int64(0)
		if out > 0 {
			want = 2
		}
		if got := ctr.Worker(obs.TrafficFrames, n); got != want {
			t.Fatalf("worker %d counted %d frames for one forward exchange, want %d", n, got, want)
		}
	}
	// top-1 routing of 6 tokens in 1 block → exactly 6 token copies out.
	if got := ctr.Get(obs.TrafficTokensTo); got != 6 {
		t.Fatalf("dispatched %d token copies, want 6", got)
	}
	if got := ctr.Get(obs.TrafficBytesTo) + ctr.Get(obs.TrafficBytesFrom); got != 2*6*int64(cfg.D)*2 {
		t.Fatalf("total bytes = %d", got)
	}
	// Worker 1 is the cross-node one.
	if got, want := ctr.CrossNodeBytes(), ctr.Worker(obs.TrafficBytesTo, 1)+ctr.Worker(obs.TrafficBytesFrom, 1); got != want {
		t.Fatalf("cross-node bytes = %d, want worker 1's %d", got, want)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

// TestDistributionPlacement: each worker hosts exactly the experts the
// assignment gives it, and the snapshot round reads every one back with
// the trainable weights Distribute shipped, bit for bit.
func TestDistributionPlacement(t *testing.T) {
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 5)
	const workers = 4
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	assign := roundRobinAssignment(cfg, workers)
	exec := NewExecutor(dep.Conns, assign)
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	// Each worker hosts the experts the assignment says: 3 layers × 1
	// per layer for each of 4 workers.
	for n, w := range dep.Workers {
		want := 0
		for l := 0; l < cfg.Layers; l++ {
			for e := 0; e < cfg.Experts; e++ {
				if assign.Worker[l][e] == n {
					want++
				}
			}
		}
		if w.NumExperts() != want {
			t.Fatalf("worker %d hosts %d experts, want %d", n, w.NumExperts(), want)
		}
	}
	snap, err := exec.SnapshotExperts(0)
	if err != nil {
		t.Fatal(err)
	}
	for l, row := range grid {
		for e, ex := range row {
			en := snap.Find(l, e)
			trainable := nn.CollectTrainable(ex.Params())
			if en == nil || len(en.Tensors) < 1+len(trainable) {
				t.Fatalf("L%d/E%d: snapshot entry %v, want one with %d trainable tensors", l, e, en, len(trainable))
			}
			for i, p := range trainable { // after the entry's header row
				if !testutil.BitEqualSlices(en.Tensors[1+i].Data, p.Value.Data) {
					t.Fatalf("L%d/E%d: %s read back from worker %d differs from the distributed one", l, e, p.Name, assign.Worker[l][e])
				}
			}
		}
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

func TestExecutorErrorPropagation(t *testing.T) {
	// No experts distributed: forwarding must surface the worker error.
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	_, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: tensor.Zeros(1, 4)})
	if err == nil || !strings.Contains(err.Error(), "does not host") {
		t.Fatalf("err = %v", err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_ = dep.Wait()
}

// TestTCPDeployment runs a miniature fine-tuning step over real TCP
// loopback connections: master and 2 workers in one process, sockets in
// between.
func TestTCPDeployment(t *testing.T) {
	cfg := moe.Config{Vocab: 12, D: 4, Heads: 1, Hidden: 6, Layers: 2, Experts: 2, TopK: 1}
	m, grid := buildFinetuneSetup(cfg, 11)

	const workers = 2
	conns := make([]transport.Conn, workers)
	serveDone := make(chan error, workers)
	for i := 0; i < workers; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(i, DefaultWorkerConfig())
		go func(l *transport.Listener, w *Worker) {
			defer l.Close()
			conn, err := l.Accept()
			if err != nil {
				serveDone <- err
				return
			}
			serveDone <- w.Serve(conn)
		}(l, w)
		c, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}

	exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(exec)
	ids := []int{1, 2, 3, 4}
	logits, err := m.Forward(ids, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	loss, dl := nn.NewLoss().CrossEntropy(logits, []int{2, 3, 4, 5})
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	if err := m.Backward(dl); err != nil {
		t.Fatal(err)
	}
	if err := exec.Step(); err != nil {
		t.Fatal(err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := <-serveDone; err != nil {
			t.Fatalf("worker serve: %v", err)
		}
	}
	for _, c := range conns {
		_ = c.Close()
	}
}
