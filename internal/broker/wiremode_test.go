package broker

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// countingConn wraps a Conn and tallies frames and encoded bytes by
// message type in each direction.
type countingConn struct {
	transport.Conn
	mu        sync.Mutex
	sent      map[wire.MsgType]int
	recv      map[wire.MsgType]int
	sentBytes int64
	recvBytes int64
}

func newCountingConn(c transport.Conn) *countingConn {
	return &countingConn{Conn: c, sent: map[wire.MsgType]int{}, recv: map[wire.MsgType]int{}}
}

func (c *countingConn) Send(m *wire.Message) error {
	size := wire.EncodedSize(m)
	err := c.Conn.Send(m)
	if err == nil {
		c.mu.Lock()
		c.sent[m.Type]++
		c.sentBytes += int64(size)
		c.mu.Unlock()
	}
	return err
}

func (c *countingConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.mu.Lock()
		c.recv[m.Type]++
		c.recvBytes += int64(wire.EncodedSize(m))
		c.mu.Unlock()
	}
	return m, err
}

func wireModeConfig() moe.Config {
	return moe.Config{Vocab: 16, D: 6, Heads: 1, Hidden: 8, Layers: 1, Experts: 4, TopK: 2}
}

// forwardBatches builds one deterministic per-expert batch map; each call
// returns fresh tensors so in-place transport quantization of one run
// cannot leak into another.
func forwardBatches(cfg moe.Config, rows int) map[int]*tensor.Tensor {
	rng := rand.New(rand.NewSource(21))
	batches := make(map[int]*tensor.Tensor, cfg.Experts)
	for e := 0; e < cfg.Experts; e++ {
		batches[e] = tensor.Randn(rng, 1, rows, cfg.D)
	}
	return batches
}

// startTCPWorkers mirrors StartLocalWorkers over real loopback sockets.
func startTCPWorkers(t *testing.T, n int) ([]transport.Conn, func()) {
	t.Helper()
	conns := make([]transport.Conn, n)
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(i, DefaultWorkerConfig())
		go func(l *transport.Listener, w *Worker) {
			defer l.Close()
			conn, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			done <- w.Serve(conn)
		}(l, w)
		c, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	cleanup := func() {
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}
		for _, c := range conns {
			_ = c.Close()
		}
	}
	return conns, cleanup
}

// TestChanTCPParity: for every wire encoding, the in-process chan
// transport and the TCP transport must deliver bit-identical expert
// outputs from the same inputs. Both send encoded frames through one
// codec, so this stays as a regression: tests on chan conns exercise the
// same numerics as real deployments.
func TestChanTCPParity(t *testing.T) {
	cfg := wireModeConfig()
	const workers, rows = 2, 3

	run := func(t *testing.T, conns []transport.Conn, enc wire.Encoding) map[int]*tensor.Tensor {
		t.Helper()
		_, grid := buildFinetuneSetup(cfg, 13)
		exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
		exec.WireEncoding = enc
		if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
			t.Fatal(err)
		}
		outs, err := exec.ForwardExperts(0, forwardBatches(cfg, rows))
		if err != nil {
			t.Fatal(err)
		}
		// Copy out: results are the executor's reused buffers, which the
		// next exchange rewrites.
		copied := make(map[int]*tensor.Tensor, len(outs))
		for e, o := range outs {
			c := tensor.Zeros(o.Shape()...)
			copy(c.Data, o.Data)
			copied[e] = c
		}
		if err := exec.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return copied
	}

	for _, enc := range []wire.Encoding{wire.EncFP64, wire.EncFP16, wire.EncInt8} {
		t.Run(enc.String(), func(t *testing.T) {
			dep := StartLocalWorkers(workers, DefaultWorkerConfig())
			chanOuts := run(t, dep.Conns, enc)
			if err := dep.Wait(); err != nil {
				t.Fatal(err)
			}

			tcpConns, cleanup := startTCPWorkers(t, workers)
			tcpOuts := run(t, tcpConns, enc)
			cleanup()

			if len(chanOuts) != cfg.Experts || len(tcpOuts) != cfg.Experts {
				t.Fatalf("outputs missing: chan %d, tcp %d", len(chanOuts), len(tcpOuts))
			}
			for e := 0; e < cfg.Experts; e++ {
				a, b := chanOuts[e], tcpOuts[e]
				for i := range a.Data {
					if !testutil.BitEqual(a.Data[i], b.Data[i]) {
						t.Fatalf("%v expert %d value %d: chan %v != tcp %v", enc, e, i, a.Data[i], b.Data[i])
					}
				}
			}
		})
	}
}

// TestCoalescedFrameCounts: one exchange sends exactly one frame per
// worker per direction per layer, regardless of how many experts each
// worker hosts.
func TestCoalescedFrameCounts(t *testing.T) {
	cfg := wireModeConfig()
	const workers, rows = 2, 3

	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	counts := make([]*countingConn, workers)
	conns := make([]transport.Conn, workers)
	for i, c := range dep.Conns {
		counts[i] = newCountingConn(c)
		conns[i] = counts[i]
	}
	_, grid := buildFinetuneSetup(cfg, 13)
	exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	outs, err := exec.ForwardExperts(0, forwardBatches(cfg, rows))
	if err != nil {
		t.Fatal(err)
	}
	grads := make(map[int]*tensor.Tensor, len(outs))
	for e, o := range outs {
		g := tensor.Zeros(o.Shape()...)
		for i := range g.Data {
			g.Data[i] = 0.1
		}
		grads[e] = g
	}
	if _, err := exec.BackwardExperts(0, grads); err != nil {
		t.Fatal(err)
	}
	for n, c := range counts {
		c.mu.Lock()
		fwd, bwd := c.sent[wire.MsgForwardMulti], c.sent[wire.MsgBackwardMulti]
		fwdRes, bwdRes := c.recv[wire.MsgForwardMultiResult], c.recv[wire.MsgBackwardMultiResult]
		c.mu.Unlock()
		if fwd != 1 || bwd != 1 || fwdRes != 1 || bwdRes != 1 {
			t.Errorf("worker %d: fwd=%d bwd=%d fwdRes=%d bwdRes=%d frames, want 1 each",
				n, fwd, bwd, fwdRes, bwdRes)
		}
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestByteAccountingInt8Coalesced: under int8 dispatch, the executor's
// logical traffic accounting must include the per-row scale
// overhead (D + 8 bytes per token copy each way), and the transport
// meter's EncodedSize-based accounting must agree between the send and
// receive sides of every frame.
func TestByteAccountingInt8Coalesced(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 2, TopK: 1}
	m, grid := buildFinetuneSetup(cfg, 3)
	const workers = 2
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	counts := make([]*countingConn, workers)
	conns := make([]transport.Conn, workers)
	for i, c := range dep.Conns {
		counts[i] = newCountingConn(c)
		conns[i] = counts[i]
	}
	exec := NewExecutor(conns, roundRobinAssignment(cfg, workers))
	exec.WireEncoding = wire.EncInt8
	exec.BytesPerValue = 1
	exec.Counters = obs.NewCounters([]bool{false, true})
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(exec)

	ids := []int{1, 2, 3, 4, 5, 6}
	if _, err := m.Forward(ids, 1, 6); err != nil {
		t.Fatal(err)
	}
	perToken := int64(cfg.D) + int64(wire.EncInt8.ScaleBytesPerRow())
	ctr := exec.Counters
	for n := 0; n < workers; n++ {
		out, in := ctr.Worker(obs.TrafficTokensTo, n), ctr.Worker(obs.TrafficTokensFrom, n)
		if out != in {
			t.Fatalf("worker %d token conservation violated: %d out, %d in", n, out, in)
		}
		// Logical bytes = tokens × (D·1B + 8B row scale), both directions.
		if got := ctr.Worker(obs.TrafficBytesTo, n); got != out*perToken {
			t.Fatalf("worker %d dispatch bytes = %d, want %d", n, got, out*perToken)
		}
		if got := ctr.Worker(obs.TrafficBytesFrom, n); got != in*perToken {
			t.Fatalf("worker %d return bytes = %d, want %d", n, got, in*perToken)
		}
	}
	// top-1 routing of 6 tokens in 1 block → exactly 6 token copies out.
	if got := ctr.Get(obs.TrafficTokensTo); got != 6 {
		t.Fatalf("dispatched %d token copies, want 6", got)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestMeterMatchesWireBytes: the transport meter must account exactly the
// bytes a TCP socket carries — the AppendFrame length of every frame —
// for fp64, fp16, int8 and multi-tensor frames, on both ends.
func TestMeterMatchesWireBytes(t *testing.T) {
	frames := []*wire.Message{
		{Type: wire.MsgAssign, Layer: 0, Expert: 1, Seq: 1,
			Tensors: []wire.Matrix{{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}}},
		{Type: wire.MsgSnapshotResult, Layer: 0, Expert: 1, Seq: 2,
			Tensors: []wire.Matrix{{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}, Enc: wire.EncFP16}}},
		{Type: wire.MsgForwardMulti, Layer: 0, Expert: wire.ExpertCoalesced, Seq: 3,
			Tensors: []wire.Matrix{
				{Rows: 1, Cols: 2, Data: []float64{0, 1}},
				{Rows: 2, Cols: 3, Data: []float64{1, -2, 3, -4, 5, -6}, Enc: wire.EncInt8},
				{Rows: 1, Cols: 3, Data: []float64{7, 8, 9}, Enc: wire.EncInt8},
			}},
	}
	var want int64
	for _, f := range frames {
		buf, err := wire.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(buf))
		if int64(len(buf)) != int64(wire.EncodedSize(f)) {
			t.Fatalf("EncodedSize %d != frame length %d", wire.EncodedSize(f), len(buf))
		}
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- c
	}()
	dialed, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	serverConn := <-accepted
	if serverConn == nil {
		t.FailNow()
	}
	defer serverConn.Close()

	sender := newCountingConn(dialed)
	receiver := newCountingConn(serverConn)
	for _, f := range frames {
		if err := sender.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for range frames {
		if _, err := receiver.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if sender.sentBytes != want {
		t.Fatalf("sender accounted %d bytes, wire carried %d", sender.sentBytes, want)
	}
	// The receive side recomputes EncodedSize from the decoded message:
	// the Enc bytes round-trip, so both ends account identical bytes.
	if receiver.recvBytes != want {
		t.Fatalf("receiver accounted %d bytes, wire carried %d", receiver.recvBytes, want)
	}
}
