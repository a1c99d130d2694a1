package broker

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// singleWorkerGrid builds one layer of nExperts tiny experts, all assigned
// to worker 0.
func singleWorkerGrid(nExperts int) ([][]*moe.Expert, *placement.Assignment, ExpertSpec) {
	rng := rand.New(rand.NewSource(17))
	grid := [][]*moe.Expert{make([]*moe.Expert, nExperts)}
	for e := 0; e < nExperts; e++ {
		ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, rng, 4, 6, false)
		ex.AttachLoRA(rng, 2, 4)
		grid[0][e] = ex
	}
	assign := placement.NewAssignment(1, nExperts) // all default to worker 0
	return grid, assign, ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
}

// shimDeadline bounds every broker test that drives a round against a
// hand-written shim or conn wrapper: a wedged round fails the test within
// a minute instead of at go test's 10-minute default.
const shimDeadline = 60 * time.Second

// within runs f on its own goroutine and fails the test with f's error,
// or when f has not returned after shimDeadline.
func within(t *testing.T, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(shimDeadline):
		t.Fatalf("round still running after %v", shimDeadline)
	}
}

// oneInFlightConn counts every Send made while a reply is still
// outstanding on the connection it wraps: a Send raises the outstanding
// count, a received reply lowers it.
type oneInFlightConn struct {
	transport.Conn
	outstanding, overlaps atomic.Int64
}

func (c *oneInFlightConn) Send(m *wire.Message) error {
	if c.outstanding.Add(1) > 1 {
		c.overlaps.Add(1)
	}
	return c.Conn.Send(m)
}

func (c *oneInFlightConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.outstanding.Add(-1)
	}
	return m, err
}

// TestOneRequestInFlight pins the round's send-then-receive rule: however
// long a worker's row — 300 installs, snapshots or restores — the master
// never sends a request while the previous one's reply is outstanding,
// and the forward and backward exchanges that follow are one 300-tensor
// frame each. It is also the regression test for the send-then-recv
// deadlock: a master that sends a row of more requests than the transport
// buffers (~128 messages on the in-process pipe) before receiving any
// wedges against the worker's full reply queue, and fails here at the
// deadline.
func TestOneRequestInFlight(t *testing.T) {
	const experts = 300 // > 2×64 pipe buffering
	grid, assign, spec := singleWorkerGrid(experts)
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	conn := &oneInFlightConn{Conn: dep.Conns[0]}
	exec := NewExecutor([]transport.Conn{conn}, assign)
	batches := make(map[int]*tensor.Tensor, experts)
	for e := 0; e < experts; e++ {
		batches[e] = tensor.Full(0.1, 2, 4)
	}
	allExperts := func(out map[int]*tensor.Tensor, err error) error {
		if err == nil && len(out) != experts {
			err = fmt.Errorf("exchange returned %d results, want %d", len(out), experts)
		}
		return err
	}
	var snap *checkpoint.ExpertSnapshot
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Distribute", func() error { return exec.Distribute(grid, spec) }},
		{"SnapshotExperts", func() (err error) { snap, err = exec.SnapshotExperts(0); return err }},
		{"RestoreExperts", func() error { return exec.RestoreExperts(snap.Entries, assign) }},
		{"ForwardExperts", func() error { return allExperts(exec.ForwardExperts(0, batches)) }},
		{"BackwardExperts", func() error { return allExperts(exec.BackwardExperts(0, batches)) }},
		{"Shutdown", exec.Shutdown},
	} {
		within(t, op.run)
		if n := conn.overlaps.Load(); n > 0 {
			t.Fatalf("%s: %d requests sent while a reply was outstanding", op.name, n)
		}
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// noisyShim serves one pipe endpoint like a worker that also replays old
// traffic: before each answer it sends a stale reply (Seq 0, below every
// Seq the master stamps) and a duplicate of its previous answer. A
// MsgSnapshot is answered with a 1×1 tensor holding (expert index + 1),
// so results are attributable, and the stale reply carries 0; every
// other request is acked. It returns after acking a shutdown.
func noisyShim(conn transport.Conn) error {
	var prev *wire.Message
	for {
		req, err := conn.Recv()
		if err != nil {
			return err
		}
		answer := &wire.Message{Type: wire.MsgAck, Layer: req.Layer, Expert: req.Expert, Seq: req.Seq}
		stale := &wire.Message{Type: wire.MsgAck}
		if req.Type == wire.MsgSnapshot {
			answer.Type, stale.Type = wire.MsgSnapshotResult, wire.MsgSnapshotResult
			answer.Tensors = []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{float64(req.Expert + 1)}}}
			stale.Tensors = []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{0}}}
		}
		frames := []*wire.Message{stale}
		if prev != nil {
			dup := *prev
			frames = append(frames, &dup)
		}
		for _, m := range append(frames, answer) {
			if err := conn.Send(m); err != nil {
				return err
			}
		}
		if req.Type == wire.MsgShutdown {
			return nil
		}
		prev = answer
	}
}

// TestOutOfOrderRepliesAreCorrelatedBySeq: replies are matched to the
// outstanding request by Seq, not by arrival order. Against a worker that
// precedes every answer with a stale reply and a duplicate of its
// previous answer, Distribute and SnapshotExperts complete, every
// snapshot payload lands on the expert that asked, and the absorbed
// frames are counted exactly: a row of k requests absorbs k Seq-0 replies
// plus, for its first request, the previous row's last answer (stale),
// and k−1 duplicates of its own answers. A reply whose Seq is above the
// outstanding one answers nothing the master asked and fails the share.
func TestOutOfOrderRepliesAreCorrelatedBySeq(t *testing.T) {
	const experts = 8
	master, workerEnd := transport.Pipe()
	shimDone := make(chan error, 1)
	go func() { shimDone <- noisyShim(workerEnd) }()

	grid, assign, spec := singleWorkerGrid(experts)
	exec := NewExecutor([]transport.Conn{master}, assign)
	exec.Counters = obs.NewCounters(make([]bool, 1))
	counts := func(op string, stale, dup int64) {
		t.Helper()
		if s, d := exec.Counters.Get(obs.StaleReplies), exec.Counters.Get(obs.DuplicateReplies); s != stale || d != dup {
			t.Fatalf("after %s: %d stale and %d duplicate replies absorbed, want %d and %d", op, s, d, stale, dup)
		}
	}

	within(t, func() error { return exec.Distribute(grid, spec) })
	counts("Distribute", experts, experts-1)
	var snap *checkpoint.ExpertSnapshot
	within(t, func() (err error) { snap, err = exec.SnapshotExperts(0); return err })
	counts("SnapshotExperts", 2*experts+1, 2*(experts-1))
	if len(snap.Entries) != experts {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.Entries), experts)
	}
	for _, entry := range snap.Entries {
		want := float64(entry.Expert + 1)
		if len(entry.Tensors) != 1 || !testutil.BitEqual(entry.Tensors[0].Data[0], want) {
			t.Fatalf("expert %d got another request's reply: %+v, want %v", entry.Expert, entry.Tensors, want)
		}
	}
	within(t, exec.Shutdown)
	counts("Shutdown", 2*experts+3, 2*(experts-1))
	within(t, func() error { return <-shimDone })

	// A reply from the future: the share fails naming its Seq.
	master, workerEnd = transport.Pipe()
	go func() {
		if m, err := workerEnd.Recv(); err == nil {
			_ = workerEnd.Send(&wire.Message{Type: wire.MsgPong, Seq: m.Seq + 1})
		}
	}()
	exec = NewExecutor([]transport.Conn{master}, assign)
	within(t, func() error {
		if err := exec.Ping(0); err == nil || !strings.Contains(err.Error(), "unknown seq") {
			return fmt.Errorf("ping answered above its Seq: err = %v, want unknown seq", err)
		}
		return nil
	})
	_ = master.Close()
}

// applyTrainingRound drives one forward/backward/step round for expert
// e0 directly through the worker's message handler.
func applyTrainingRound(t *testing.T, w *Worker, x, dy *wire.Matrix) {
	t.Helper()
	if reply, _ := w.handle(multiFrame(false, 0, []int{0}, *x)); reply.Type != wire.MsgForwardMultiResult {
		t.Fatalf("forward failed: %v %s", reply.Type, reply.Text)
	}
	if reply, _ := w.handle(multiFrame(true, 0, []int{0}, *dy)); reply.Type != wire.MsgBackwardMultiResult {
		t.Fatalf("backward failed: %v %s", reply.Type, reply.Text)
	}
	if reply, _ := w.handle(&wire.Message{Type: wire.MsgStep}); reply.Type != wire.MsgAck {
		t.Fatalf("step failed: %v", reply.Type)
	}
	if reply, _ := w.handle(&wire.Message{Type: wire.MsgZeroGrad}); reply.Type != wire.MsgAck {
		t.Fatalf("zero-grad failed: %v", reply.Type)
	}
}

// TestMigrationPreservesOptimizerState: fetching one expert off a worker
// must not discard the AdamW moment estimates of the experts that stay.
// A worker hosting {e0, e1} that loses e1 mid-training must keep updating
// e0 exactly like a control worker that hosted only e0 all along.
func TestMigrationPreservesOptimizerState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spec := ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	mkExpert := func(e int, seed int64) *moe.Expert {
		r := rand.New(rand.NewSource(seed))
		ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, r, spec.D, spec.Hidden, false)
		ex.AttachLoRA(r, spec.LoRARank, spec.LoRAAlpha)
		return ex
	}

	subject := NewWorker(0, DefaultWorkerConfig())
	control := NewWorker(1, DefaultWorkerConfig())
	for _, w := range []*Worker{subject, control} {
		if reply, _ := w.handle(encodeExpert(mkExpert(0, 41), spec)); reply.Type != wire.MsgAck {
			t.Fatalf("assign e0: %v", reply.Type)
		}
	}
	// Only the subject hosts e1.
	if reply, _ := subject.handle(encodeExpert(mkExpert(1, 42), spec)); reply.Type != wire.MsgAck {
		t.Fatalf("assign e1: %v", reply.Type)
	}

	x := wire.Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8)}
	dy := wire.Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8)}
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		dy.Data[i] = rng.NormFloat64()
	}

	// Round 1 builds nonzero AdamW moments for e0 on both workers.
	applyTrainingRound(t, subject, &x, &dy)
	applyTrainingRound(t, control, &x, &dy)

	// Migrate e1 away from the subject (the release leg of a migration).
	fetch := &wire.Message{Type: wire.MsgFetch, Layer: 0, Expert: 1}
	if reply, _ := subject.handle(fetch); reply.Type != wire.MsgFetchResult {
		t.Fatalf("fetch e1: %v %s", reply.Type, reply.Text)
	}

	// Round 2: if the fetch reset optimizer state, the subject's e0 now
	// diverges from the control (fresh moments + restarted bias
	// correction).
	applyTrainingRound(t, subject, &x, &dy)
	applyTrainingRound(t, control, &x, &dy)

	get := func(w *Worker) []wire.Matrix {
		reply, _ := w.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
		if reply.Type != wire.MsgSnapshotResult || len(reply.Tensors) < 2 {
			t.Fatalf("snapshot e0: %v %s (%d tensors)", reply.Type, reply.Text, len(reply.Tensors))
		}
		return reply.Tensors
	}
	subjTensors, ctrlTensors := get(subject), get(control)
	if len(subjTensors) != len(ctrlTensors) {
		t.Fatalf("tensor count mismatch: %d vs %d", len(subjTensors), len(ctrlTensors))
	}
	for i := range subjTensors {
		for j := range subjTensors[i].Data {
			if s, c := subjTensors[i].Data[j], ctrlTensors[i].Data[j]; !testutil.BitEqual(s, c) {
				t.Fatalf("optimizer state lost across migration: tensor %d value %d differs (%.18g vs %.18g)",
					i, j, s, c)
			}
		}
	}
}

// TestMigrationAlsoPreservesStateOnAssign: the incoming half of a
// migration (a new Assign) must not reset the moments of already-hosted
// experts either.
func TestMigrationAlsoPreservesStateOnAssign(t *testing.T) {
	spec := ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	mkExpert := func(e int, seed int64) *moe.Expert {
		r := rand.New(rand.NewSource(seed))
		ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, r, spec.D, spec.Hidden, false)
		ex.AttachLoRA(r, spec.LoRARank, spec.LoRAAlpha)
		return ex
	}
	rng := rand.New(rand.NewSource(32))
	x := wire.Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8)}
	dy := wire.Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8)}
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		dy.Data[i] = rng.NormFloat64()
	}

	subject := NewWorker(0, DefaultWorkerConfig())
	control := NewWorker(1, DefaultWorkerConfig())
	for _, w := range []*Worker{subject, control} {
		if reply, _ := w.handle(encodeExpert(mkExpert(0, 51), spec)); reply.Type != wire.MsgAck {
			t.Fatalf("assign e0: %v", reply.Type)
		}
	}
	applyTrainingRound(t, subject, &x, &dy)
	applyTrainingRound(t, control, &x, &dy)

	// A migrated-in expert arrives at the subject only.
	if reply, _ := subject.handle(encodeExpert(mkExpert(1, 52), spec)); reply.Type != wire.MsgAck {
		t.Fatalf("assign e1: %v", reply.Type)
	}

	applyTrainingRound(t, subject, &x, &dy)
	applyTrainingRound(t, control, &x, &dy)

	get := func(w *Worker) []wire.Matrix {
		reply, _ := w.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
		if reply.Type != wire.MsgSnapshotResult || len(reply.Tensors) < 2 {
			t.Fatalf("snapshot e0: %v %s (%d tensors)", reply.Type, reply.Text, len(reply.Tensors))
		}
		return reply.Tensors
	}
	subjTensors, ctrlTensors := get(subject), get(control)
	for i := range subjTensors {
		for j := range subjTensors[i].Data {
			if s, c := subjTensors[i].Data[j], ctrlTensors[i].Data[j]; !testutil.BitEqual(s, c) {
				t.Fatalf("optimizer state lost across incoming assign: tensor %d value %d differs", i, j)
			}
		}
	}
}

// TestSnapshotSurfacesWorkerError: a worker replying MsgError to a
// control round's request fails the round with the worker's text, here
// the snapshot round, whose reply type is not an ack (a serial
// implementation once treated the error frame as a malformed reply).
func TestSnapshotSurfacesWorkerError(t *testing.T) {
	master, workerEnd := transport.Pipe()
	go func() {
		m, err := workerEnd.Recv()
		if err != nil {
			return
		}
		_ = workerEnd.Send(&wire.Message{Type: wire.MsgError, Seq: m.Seq, Text: "snapshot exploded"})
	}()
	exec := NewExecutor([]transport.Conn{master}, placement.NewAssignment(1, 1))
	within(t, func() error {
		if _, err := exec.SnapshotExperts(0); err == nil || !strings.Contains(err.Error(), "snapshot exploded") {
			return fmt.Errorf("err = %v, want worker error surfaced", err)
		}
		return nil
	})
	_ = master.Close()
}

// TestRoundErrorNamesLowestFailingWorker: when several workers fail one
// round, its error is the lowest-indexed worker's, not whichever failed
// first in time. Worker 1 answers, worker 2 refuses at once and worker 0
// only after it; exchange (and restore) used to return worker 2's error.
// The sleep only lets the master see worker 2's refusal first — the
// assertion holds in either order.
func TestRoundErrorNamesLowestFailingWorker(t *testing.T) {
	const workers = 3
	conns := make([]transport.Conn, workers)
	assign := placement.NewAssignment(1, workers)
	batches := make(map[int]*tensor.Tensor, workers)
	refused := make(chan struct{})
	for n := range conns {
		master, workerEnd := transport.Pipe()
		conns[n] = master
		assign.Worker[0][n] = n
		batches[n] = tensor.Full(0.5, 1, 4)
		go func() {
			m, err := workerEnd.Recv()
			if err != nil {
				return
			}
			reply := &wire.Message{Type: wire.MsgError, Seq: m.Seq, Text: fmt.Sprintf("refused by %d", n)}
			switch n {
			case 0:
				<-refused
				time.Sleep(10 * time.Millisecond)
			case 1:
				reply = &wire.Message{Type: wire.MsgForwardMultiResult, Seq: m.Seq, Tensors: m.Tensors}
			case 2:
				defer close(refused)
			}
			_ = workerEnd.Send(reply)
		}()
	}
	exec := NewExecutor(conns, assign)
	within(t, func() error {
		if _, err := exec.ForwardExperts(0, batches); err == nil || !strings.Contains(err.Error(), "refused by 0") {
			return fmt.Errorf("err = %v, want worker 0's refusal", err)
		}
		return nil
	})
	for _, c := range conns {
		_ = c.Close()
	}
}

// TestExchangeDrainsAfterWorkerError: a failing request stops its row
// there, and the SAME connection serves the next round correctly. A
// Distribute whose fourth entry the worker rejects sends nothing after
// it; one failing expert in a K-expert frame fails the whole frame with
// exactly one MsgError.
func TestExchangeDrainsAfterWorkerError(t *testing.T) {
	const experts, bad = 6, 3
	grid, assign, spec := singleWorkerGrid(experts)
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	conn := newCountingConn(dep.Conns[0])
	exec := NewExecutor([]transport.Conn{conn}, assign)

	// An adapterless expert under a LoRA spec: its entry carries fewer
	// tensors than its metadata row declares.
	malformed := append([]*moe.Expert(nil), grid[0]...)
	malformed[bad] = moe.NewExpert(moe.ExpertID{Layer: 0, Expert: bad}, rand.New(rand.NewSource(3)), spec.D, spec.Hidden, false)
	within(t, func() error {
		if err := exec.Distribute([][]*moe.Expert{malformed}, spec); err == nil {
			return fmt.Errorf("distribute of a malformed entry succeeded")
		}
		return nil
	})
	if sent, hosted := conn.sent[wire.MsgAssign], dep.Workers[0].NumExperts(); sent != bad+1 || hosted != bad {
		t.Fatalf("row went on past its failure: %d assigns sent, %d experts hosted, want %d and %d", sent, hosted, bad+1, bad)
	}
	if err := exec.Distribute(grid, spec); err != nil {
		t.Fatalf("distribute after error reply: %v", err)
	}

	// Request the hosted experts plus one the worker does not host.
	assign.Worker[0] = append(assign.Worker[0], 0) // expert index `experts` → worker 0
	batches := make(map[int]*tensor.Tensor, experts+1)
	for e := 0; e <= experts; e++ {
		batches[e] = tensor.Full(0.2, 2, 4)
	}
	if _, err := exec.ForwardExperts(0, batches); err == nil || !strings.Contains(err.Error(), "does not host") {
		t.Fatalf("err = %v, want does-not-host", err)
	}
	if got := conn.recv[wire.MsgError]; got != 2 {
		t.Fatalf("failed frame produced %d MsgError replies, want 1", got-1)
	}

	// The connection must be clean: a follow-up round over only hosted
	// experts succeeds and returns sane values.
	delete(batches, experts)
	out, err := exec.ForwardExperts(0, batches)
	if err != nil {
		t.Fatalf("exchange after error reply: %v", err)
	}
	if len(out) != experts {
		t.Fatalf("got %d outputs, want %d", len(out), experts)
	}
	for e, o := range out {
		for _, v := range o.Data {
			if math.IsNaN(v) {
				t.Fatalf("expert %d output is NaN", e)
			}
		}
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentExpertsProduceSerialResults: a many-expert frame fanned
// out across the worker (tensor.SetParallelism(8)) must produce
// bit-identical outputs to a serial (SetParallelism(1)) worker —
// concurrency must not change math.
func TestConcurrentExpertsProduceSerialResults(t *testing.T) {
	const experts = 24
	t.Cleanup(func() { tensor.SetParallelism(0) })
	run := func(parallelism int) map[int]*tensor.Tensor {
		tensor.SetParallelism(parallelism)
		grid, assign, spec := singleWorkerGrid(experts)
		dep := StartLocalWorkers(1, DefaultWorkerConfig())
		exec := NewExecutor(dep.Conns, assign)
		if err := exec.Distribute(grid, spec); err != nil {
			t.Fatal(err)
		}
		batches := make(map[int]*tensor.Tensor, experts)
		for e := 0; e < experts; e++ {
			batches[e] = tensor.Full(0.05*float64(e+1), 3, 4)
		}
		out, err := exec.ForwardExperts(0, batches)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := dep.Wait(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	pooled := run(8)
	for e := 0; e < experts; e++ {
		for i := range serial[e].Data {
			if !testutil.BitEqual(serial[e].Data[i], pooled[e].Data[i]) {
				t.Fatalf("expert %d diverges between serial and pooled workers", e)
			}
		}
	}
}
