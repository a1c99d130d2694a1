package broker

import (
	"math"
	"strings"
	"testing"

	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestExecutorSurvivesDeadWorker: if a worker connection dies mid-run,
// the executor must return an error rather than hang or panic.
func TestExecutorSurvivesDeadWorker(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 3)
	dep := StartLocalWorkers(2, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	// Kill worker 1's pipe.
	_ = dep.Conns[1].Close()

	_, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{
		0: tensor.Zeros(1, cfg.D),
		1: tensor.Zeros(1, cfg.D),
	})
	if err == nil {
		t.Fatal("forward through a dead worker must fail")
	}
	// The surviving worker still serves.
	out, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: tensor.Zeros(1, cfg.D)})
	if err != nil {
		t.Fatalf("surviving worker must keep serving: %v", err)
	}
	if out[0] == nil {
		t.Fatal("missing output from surviving worker")
	}
	dep.Close()
}

// TestWorkerServeStopsOnClosedConn: the Expert Manager's serve loop must
// exit with an error (not spin) when its connection is severed.
func TestWorkerServeStopsOnClosedConn(t *testing.T) {
	masterEnd, workerEnd := transport.Pipe()
	w := NewWorker(0, DefaultWorkerConfig())
	done := make(chan error, 1)
	go func() { done <- w.Serve(workerEnd) }()
	_ = masterEnd.Close()
	if err := <-done; err == nil {
		t.Fatal("serve must return an error on a severed connection")
	}
}

// malformedMultiFrames are dispatch frames a hostile or corrupted peer
// could put on the wire (every matrix is internally consistent, so they
// encode) against a worker hosting experts 0 and 1 of layer 0 with D=4.
func malformedMultiFrames() map[string]*wire.Message {
	batch := func(cols int) wire.Matrix {
		return wire.Matrix{Rows: 2, Cols: cols, Data: make([]float64, 2*cols)}
	}
	withIDs := func(ids wire.Matrix, batches ...wire.Matrix) *wire.Message {
		return &wire.Message{Type: wire.MsgForwardMulti, Expert: wire.ExpertCoalesced,
			Tensors: append([]wire.Matrix{ids}, batches...)}
	}
	return map[string]*wire.Message{
		"no-tensors":        {Type: wire.MsgBackwardMulti, Expert: wire.ExpertCoalesced},
		"K=0":               multiFrame(false, 0, nil),
		"id-row-2xK":        withIDs(wire.Matrix{Rows: 2, Cols: 1, Data: []float64{0, 1}}, batch(4), batch(4)),
		"K-exceeds-batches": multiFrame(false, 0, []int{0, 1, 0}, batch(4), batch(4)),
		"K-below-batches":   multiFrame(true, 0, []int{0}, batch(4), batch(4)),
		"unknown-id":        multiFrame(false, 0, []int{0, 99}, batch(4), batch(4)),
		"unknown-layer":     multiFrame(false, 7, []int{0}, batch(4)),
		"negative-id":       withIDs(wire.Matrix{Rows: 1, Cols: 2, Data: []float64{0, -1}}, batch(4), batch(4)),
		"NaN-id":            withIDs(wire.Matrix{Rows: 1, Cols: 2, Data: []float64{math.NaN(), 1}}, batch(4), batch(4)),
		"fractional-id":     withIDs(wire.Matrix{Rows: 1, Cols: 1, Data: []float64{0.5}}, batch(4)),
		"huge-id":           withIDs(wire.Matrix{Rows: 1, Cols: 1, Data: []float64{1e300}}, batch(4)),
		"width-mismatch":    multiFrame(false, 0, []int{0, 1}, batch(4), batch(5)),
		"backward-first":    multiFrame(true, 0, []int{0, 1}, batch(4), batch(4)),
		"repeated-id":       multiFrame(false, 0, []int{0, 0}, batch(4), batch(4)),
	}
}

// handleWireFrame decodes body with the wire decoder — the path a frame
// takes off a socket — stamps it as a dispatch frame and hands it to a
// fresh worker hosting experts 0 and 1. Whatever the frame holds, the
// worker must answer with one MsgError or one well-formed result, never
// panic, and serve the next frame. It returns the reply type (0 when the
// decoder refused the body).
func handleWireFrame(t testing.TB, body []byte, backward bool) wire.MsgType {
	t.Helper()
	m, err := wire.DecodePooled(body)
	if err != nil {
		return 0
	}
	m.Type = wire.MsgForwardMulti
	wantReply := wire.MsgForwardMultiResult
	if backward {
		m.Type, wantReply = wire.MsgBackwardMulti, wire.MsgBackwardMultiResult
	}
	w := NewWorker(0, DefaultWorkerConfig())
	handle := func(m *wire.Message) *wire.Message {
		reply, done := w.handle(m)
		if done || reply == nil {
			t.Fatalf("%v: reply %v, done %v", m.Type, reply, done)
		}
		return reply
	}
	grid, _, spec := singleWorkerGrid(2)
	for _, ex := range grid[0] {
		if reply := handle(encodeExpert(ex, spec)); reply.Type != wire.MsgAck {
			t.Fatalf("assign %v: %v %s", ex.ID, reply.Type, reply.Text)
		}
	}
	reply := handle(m)
	switch {
	case reply.Type == wire.MsgError:
	case reply.Type == wantReply && len(reply.Tensors) == len(m.Tensors):
	default:
		t.Fatalf("reply %v (%d tensors) to a %d-tensor %v frame", reply.Type, len(reply.Tensors), len(m.Tensors), m.Type)
	}
	good := multiFrame(false, 0, []int{1}, wire.Matrix{Rows: 1, Cols: 4, Data: make([]float64, 4)})
	if next := handle(good); next.Type != wire.MsgForwardMultiResult {
		t.Fatalf("next frame after %v reply: %v %q", reply.Type, next.Type, next.Text)
	}
	return reply.Type
}

// TestWorkerRejectsMalformedMultiFrames: every malformed dispatch frame
// is answered with exactly one MsgError — no panic, no partial result —
// and the worker serves the next frame.
func TestWorkerRejectsMalformedMultiFrames(t *testing.T) {
	for name, frame := range malformedMultiFrames() {
		buf, err := wire.AppendFrame(nil, frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := handleWireFrame(t, buf[4:], frame.Type == wire.MsgBackwardMulti); got != wire.MsgError {
			t.Errorf("%s: reply = %v, want MsgError", name, got)
		}
	}
}

// FuzzWorkerMultiFrame throws arbitrary decodable bodies at the worker
// as dispatch frames, seeded with the malformed table.
func FuzzWorkerMultiFrame(f *testing.F) {
	for _, frame := range malformedMultiFrames() {
		buf, err := wire.AppendFrame(nil, frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:], frame.Type == wire.MsgBackwardMulti)
	}
	f.Fuzz(func(t *testing.T, body []byte, backward bool) {
		handleWireFrame(t, body, backward)
	})
}

// TestBrokenAssignDoesNotPoisonWorker: after a rejected assignment the
// worker keeps serving valid requests.
func TestBrokenAssignDoesNotPoisonWorker(t *testing.T) {
	w := NewWorker(0, DefaultWorkerConfig())
	bad := &wire.Message{Type: wire.MsgAssign, Layer: 0, Expert: 0,
		Tensors: []wire.Matrix{{Rows: 1, Cols: 4, Data: []float64{-1, -1, 0, 0}}}}
	reply, _ := w.handle(bad)
	if reply.Type != wire.MsgError {
		t.Fatalf("bad assign must error, got %v", reply.Type)
	}
	if w.NumExperts() != 0 {
		t.Fatal("failed assign must not register an expert")
	}
	// A good assign then works.
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 1, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 4)
	good := encodeExpert(grid[0][0], ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4})
	reply, _ = w.handle(good)
	if reply.Type != wire.MsgAck || w.NumExperts() != 1 {
		t.Fatalf("good assign after bad one failed: %v", reply.Type)
	}
}

// TestDistributeToInvalidWorkerIndex: an assignment that places an expert
// outside the connection set — on a worker past the pool, or in a cell
// the assignment does not have — is rejected up front with an error
// naming the expert and the worker, by Distribute and by the
// re-distribution RestoreExperts does for a failover or a resume alike.
func TestDistributeToInvalidWorkerIndex(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	_, grid := buildFinetuneSetup(cfg, 5)
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	defer dep.Close()
	conn := newCountingConn(dep.Conns[0])
	exec := NewExecutor([]transport.Conn{conn}, roundRobinAssignment(cfg, 1))
	// Real entries, so that a restore gets as far as placing them.
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	snap, err := exec.SnapshotExperts(0)
	if err != nil {
		t.Fatal(err)
	}
	onWorker3 := roundRobinAssignment(cfg, 1)
	onWorker3.Worker[0][1] = 3
	for _, tc := range []struct {
		name, want string
		run        func() error
	}{
		{"distribute/worker-past-pool", "expert L0/E1 assigned to invalid worker 1", func() error {
			exec.SetAssignment(roundRobinAssignment(cfg, 2))
			return exec.Distribute(grid, spec)
		}},
		{"restore/worker-past-pool", "expert L0/E1 assigned to invalid worker 3", func() error {
			return exec.RestoreExperts(snap.Entries, onWorker3)
		}},
		{"restore/expert-outside-assignment", "expert L0/E1 is outside the assignment", func() error {
			return exec.RestoreExperts(snap.Entries, placement.NewAssignment(1, 1))
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if got := conn.sent[wire.MsgAssign]; got != cfg.Experts {
		t.Fatalf("%d assigns sent, want only the first Distribute's %d", got, cfg.Experts)
	}
}

// TestZeroGradClearsOnlyTrainable: MsgZeroGrad clears what the optimizer
// steps — the LoRA gradients — and an assigned expert's frozen weights
// carry no gradient buffer at all.
func TestZeroGradClearsOnlyTrainable(t *testing.T) {
	w := NewWorker(0, DefaultWorkerConfig())
	grid, _, spec := singleWorkerGrid(1)
	if reply, _ := w.handle(encodeExpert(grid[0][0], spec)); reply.Type != wire.MsgAck {
		t.Fatalf("assign: %v %s", reply.Type, reply.Text)
	}
	params := w.experts[moe.ExpertID{}].Params()
	for _, p := range params {
		if !p.Trainable {
			if p.Grad != nil {
				t.Errorf("%s: frozen parameter carries a gradient buffer", p.Name)
			}
			continue
		}
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 7
		}
	}
	if reply, _ := w.handle(&wire.Message{Type: wire.MsgZeroGrad}); reply.Type != wire.MsgAck {
		t.Fatalf("zero-grad: %v", reply.Type)
	}
	for _, p := range params {
		if p.Trainable && !testutil.BitEqual(p.Grad.Data[0], 0) {
			t.Errorf("%s: grad %v after zero-grad, want 0", p.Name, p.Grad.Data[0])
		}
	}
}

// TestStepBeforeAssignIsHarmless: optimizer control on an empty worker
// acks cleanly (no experts yet — e.g. a spare device).
func TestStepBeforeAssignIsHarmless(t *testing.T) {
	w := NewWorker(0, DefaultWorkerConfig())
	if reply, _ := w.handle(&wire.Message{Type: wire.MsgZeroGrad}); reply.Type != wire.MsgAck {
		t.Fatalf("zero-grad on empty worker: %v", reply.Type)
	}
	if reply, _ := w.handle(&wire.Message{Type: wire.MsgStep}); reply.Type != wire.MsgAck {
		t.Fatalf("step on empty worker: %v", reply.Type)
	}
}
