package broker

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestWorkerServesKMasters: a worker serving three masters in turns is
// bit-identical — results, gradients, the 1/K-scaled step — to one whose
// master sends the rows concatenated; a disagreeing turn gets MsgError at
// every master and serving goes on; a shutdown turn acks every master.
func TestWorkerServesKMasters(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker")
	t.Run("chan", func(t *testing.T) {
		testKMasters(t, func(*testing.T) (transport.Conn, transport.Conn) { return transport.Pipe() })
	})
	t.Run("tcp", func(t *testing.T) { testKMasters(t, tcpPair) })
}

// handle serves msg as a one-master turn with no arrival timestamp: the
// worker fed directly, with no transport between. The reply comes back
// as any Conn delivers it, decoded from its frame, since the worker's
// reply views buffers its next turn rewrites.
func (w *Worker) handle(msg *wire.Message) (reply *wire.Message, done bool) {
	replies := []*wire.Message{nil}
	done = w.turn([]*wire.Message{msg}, replies, 0)
	if replies[0] == nil {
		return nil, done
	}
	frame, err := wire.AppendFrame(nil, replies[0])
	if err == nil {
		reply, err = wire.DecodePooled(frame[4:])
	}
	if err != nil {
		panic(err)
	}
	return reply, done
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (transport.Conn, transport.Conn) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dialed.Close(); _ = accepted.Close() })
	return dialed, accepted
}

func testKMasters(t *testing.T, pair func(*testing.T) (transport.Conn, transport.Conn)) {
	const K = 3
	grid, _, spec := singleWorkerGrid(3)
	w, ref := NewWorker(0, DefaultWorkerConfig()), NewWorker(1, DefaultWorkerConfig())
	masters, ends := make([]transport.Conn, K), make([]transport.Conn, K)
	for i := range masters {
		masters[i], ends[i] = pair(t)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve(ends...) }()
	// turn sends master i msgs[i] (or a typ message) and checks its reply.
	turn := func(want, typ wire.MsgType, msgs ...*wire.Message) []*wire.Message {
		t.Helper()
		if len(msgs) == 0 {
			msgs = []*wire.Message{{Type: typ}, {Type: typ}, {Type: typ}}
		}
		replies := make([]*wire.Message, K)
		for i := range replies {
			msgs[i].Seq = uint64(10 + i)
			_ = masters[i].Send(msgs[i]) // a failed send fails its Recv below
		}
		for i := range replies {
			r, err := masters[i].Recv()
			if err != nil || r.Type != want || r.Seq != uint64(10+i) {
				t.Fatalf("master %d: reply %v (%v), want %v with seq %d", i, r, err, want, 10+i)
			}
			replies[i] = r
		}
		return replies
	}
	for _, ex := range grid[0] {
		turn(wire.MsgAck, 0, encodeExpert(ex, spec), encodeExpert(ex, spec), encodeExpert(ex, spec))
		ref.handle(encodeExpert(ex, spec)) // the comparisons below fail if it did
	}

	// Disagreeing turns: every master gets MsgError, and serving goes on.
	turn(wire.MsgError, 0, &wire.Message{Type: wire.MsgPing}, &wire.Message{Type: wire.MsgPing}, &wire.Message{Type: wire.MsgZeroGrad})
	x := wire.Matrix{Rows: 1, Cols: spec.D, Data: make([]float64, spec.D)}
	turn(wire.MsgError, 0, multiFrame(false, 0, []int{0}, x), multiFrame(false, 0, []int{0}, x), multiFrame(false, 0, []int{1}, x))

	// rows[j][e]: master j's rows for expert e; no master sends expert 1 any.
	rows := [K][3]int{{2, 0, 1}, {1, 0, 3}, {0, 0, 2}}
	rng := rand.New(rand.NewSource(5))
	for _, backward := range []bool{false, true} {
		frames, cat := make([]*wire.Message, K), [3]wire.Matrix{}
		for j := range frames {
			var batches []wire.Matrix
			for e, n := range rows[j] {
				m := wire.Matrix{Rows: n, Cols: spec.D, Data: make([]float64, n*spec.D)}
				for i := range m.Data {
					m.Data[i] = rng.NormFloat64()
				}
				cat[e].Rows, cat[e].Cols, cat[e].Data = cat[e].Rows+n, spec.D, append(cat[e].Data, m.Data...)
				batches = append(batches, m)
			}
			frames[j] = multiFrame(backward, 0, []int{0, 1, 2}, batches...)
		}
		want, _ := ref.handle(multiFrame(backward, 0, []int{0, 2}, cat[0], cat[2]))
		var merged [3][]float64
		for j, r := range turn(want.Type, 0, frames...) {
			for e := range merged {
				merged[e] = append(merged[e], r.Tensors[1+e].Data...)
			}
			if t1 := r.Tensors[2]; t1.Rows != 0 || t1.Cols != spec.D {
				t.Fatalf("master %d: expert 1 answered %dx%d, want 0x%d", j, t1.Rows, t1.Cols, spec.D)
			}
		}
		if !testutil.BitEqualSlices(merged[0], want.Tensors[1].Data) || !testutil.BitEqualSlices(merged[2], want.Tensors[2].Data) {
			t.Fatalf("backward=%v: merged rows differ from one master's", backward)
		}
	}
	turn(wire.MsgAck, wire.MsgStep)
	for _, ex := range ref.experts {
		for _, p := range nn.CollectTrainable(ex.Params()) {
			p.Grad.ScaleInPlace(1.0 / K)
		}
	}
	ref.handle(&wire.Message{Type: wire.MsgStep})
	turn(wire.MsgAck, wire.MsgShutdown)
	if err := <-served; err != nil {
		t.Fatalf("serve after a shutdown turn: %v", err)
	}
	for id, ex := range w.experts {
		for i, p := range nn.CollectTrainable(ex.Params()) {
			rp := nn.CollectTrainable(ref.experts[id].Params())[i]
			if !testutil.BitEqualSlices(p.Value.Data, rp.Value.Data) || !testutil.BitEqualSlices(p.Grad.Data, rp.Grad.Data) {
				t.Fatalf("%v %s: K-master worker differs from the reference after the step", id, p.Name)
			}
		}
	}
}

// TestWorkerKeepsForwardInputOverTCP: over a conn that serializes, the
// worker returns every decoded frame to the codec pools once its turn's
// replies are sent, so a forward's input must be the expert's own copy
// until its backward. Between a layer-0 forward and its backward, a
// layer-1 forward and backward of the same size decode (and release)
// frames of that size class, and the master decodes four replies of it;
// the worker's gradients and replies must still equal a worker fed the
// same frames directly. It runs on one P: a buffer released there is what
// the next request of its size class gets back (sync.Pool's per-P slot),
// so an input released too early is certain to be rewritten.
func TestWorkerKeepsForwardInputOverTCP(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(9))
	spec := ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	master, end := tcpPair(t)
	w, ref := NewWorker(0, DefaultWorkerConfig()), NewWorker(1, DefaultWorkerConfig())
	served := make(chan error, 1)
	go func() { served <- w.Serve(end) }()
	send := func(msg *wire.Message) *wire.Message {
		t.Helper()
		if err := master.Send(msg); err != nil {
			t.Fatal(err)
		}
		r, err := master.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for layer := 0; layer < 2; layer++ {
		ex := moe.NewExpert(moe.ExpertID{Layer: layer}, rng, spec.D, spec.Hidden, false)
		ex.AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
		for _, l := range ex.FFN.Linears() {
			// A fresh adapter's B is zero, and with it every gradient that
			// reads the cached input.
			for i := range l.LoRA.B.Value.Data {
				l.LoRA.B.Value.Data[i] = rng.NormFloat64()
			}
		}
		send(encodeExpert(ex, spec))
		ref.handle(encodeExpert(ex, spec))
	}
	batch := func() wire.Matrix {
		m := wire.Matrix{Rows: 5, Cols: spec.D, Data: make([]float64, 5*spec.D)}
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	for _, f := range []*wire.Message{
		multiFrame(false, 0, []int{0}, batch()),
		multiFrame(false, 1, []int{0}, batch()),
		multiFrame(true, 1, []int{0}, batch()),
		multiFrame(true, 0, []int{0}, batch()),
	} {
		want, _ := ref.handle(f)
		got := send(f)
		if got.Type != want.Type || !testutil.BitEqualSlices(got.Tensors[1].Data, want.Tensors[1].Data) {
			t.Fatalf("%v L%d: reply differs from the directly fed worker's", f.Type, f.Layer)
		}
		wire.Release(got)
	}
	send(&wire.Message{Type: wire.MsgShutdown})
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for id, ex := range w.experts {
		for i, p := range nn.CollectTrainable(ex.Params()) {
			if rp := nn.CollectTrainable(ref.experts[id].Params())[i]; !testutil.BitEqualSlices(p.Grad.Data, rp.Grad.Data) {
				t.Fatalf("%v %s: gradient differs from the directly fed worker's", id, p.Name)
			}
		}
	}
}
