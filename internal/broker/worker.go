package broker

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/wire"
)

// OptimizerKind selects the worker-local optimizer.
type OptimizerKind int

// Worker optimizer choices.
const (
	OptSGD OptimizerKind = iota + 1
	OptAdamW
)

// WorkerConfig configures an Expert Manager.
type WorkerConfig struct {
	// Optimizer is AdamW in every deployment; OptSGD, plain SGD at
	// sgdLR, gives tests simpler numerics.
	Optimizer OptimizerKind
	// AdamW is used when Optimizer is OptAdamW.
	AdamW nn.AdamWConfig
	// Obs, when non-nil, receives per-expert compute timing from
	// runExpert. In a local deployment this is usually the master's
	// handle; a distributed velaworker owns its own.
	Obs *obs.Handle
}

// DefaultWorkerConfig matches the paper's fine-tuning setup (AdamW with
// the §V-A hyperparameters).
func DefaultWorkerConfig() WorkerConfig {
	return WorkerConfig{Optimizer: OptAdamW, AdamW: nn.PaperAdamWConfig()}
}

// Worker is one Expert Manager process: it hosts a shard of experts,
// serves forward/backward dispatch frames from its masters, and applies
// local optimizer steps to the trainable (LoRA) parameters of its experts.
//
// Concurrency model: Serve handles one turn, a message from each master,
// at a time. A dispatch turn's experts compute side by side holding mu
// for reading, and they are distinct experts — checkFrame refuses a
// frame that names one twice — so no two computes touch one expert's
// cached activations. Whatever mutates the expert table or optimizer
// state holds mu for writing.
//
// The zero value is not usable; call NewWorker.
type Worker struct {
	ID  int
	cfg WorkerConfig

	mu      sync.RWMutex
	experts map[moe.ExpertID]*moe.Expert
	specs   map[moe.ExpertID]ExpertSpec
	// opt steps every hosted expert's trainable parameters; Assign and
	// Fetch rebind it. It is nil when cfg names no known optimizer, and
	// every MsgStep then answers MsgError.
	opt optimizer
	// baseSums holds each expert's digest of its frozen parameters,
	// computed once when it is assigned (they never change afterwards) and
	// stamped on every delta snapshot of it.
	baseSums map[moe.ExpertID]uint32
	// cats holds each expert's last forward turn input, an arena buffer
	// it reads until its backward turn; only turnMulti touches it.
	cats map[moe.ExpertID]*tensor.Tensor
	// turnMulti's per-expert scratch, reused from turn to turn: only
	// Serve's goroutine runs a turn.
	ids  []moe.ExpertID
	ins  []wire.Matrix
	bufs []*tensor.Tensor
	res  []wire.Matrix
	errs []error
}

// NewWorker creates an Expert Manager with no experts assigned yet.
func NewWorker(id int, cfg WorkerConfig) *Worker {
	return &Worker{
		ID: id, cfg: cfg,
		experts:  make(map[moe.ExpertID]*moe.Expert),
		specs:    make(map[moe.ExpertID]ExpertSpec),
		baseSums: make(map[moe.ExpertID]uint32),
		cats:     make(map[moe.ExpertID]*tensor.Tensor),
		opt:      newOptimizer(cfg),
	}
}

// NumExperts returns the number of experts currently hosted.
func (w *Worker) NumExperts() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.experts)
}

// params returns the parameters of all hosted experts. The order follows
// map iteration and is NOT deterministic; its caller, optimizer
// rebinding, keys state by parameter and does not depend on it.
func (w *Worker) params() []*nn.Param {
	var ps []*nn.Param
	for _, e := range w.experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// optimizer is what a worker's optimizer must do: step, and follow the
// hosted parameter set as experts arrive and leave.
type optimizer interface {
	nn.Optimizer
	nn.Rebinder
}

// sgdLR is the learning rate of OptSGD workers.
const sgdLR = 0.02

// newOptimizer builds the configured optimizer over no parameters yet, or
// nil for an unknown kind: a configuration error is reported at every
// Step as a MsgError rather than panicking the worker process.
func newOptimizer(cfg WorkerConfig) optimizer {
	switch cfg.Optimizer {
	case OptSGD:
		return nn.NewSGD(nil, sgdLR)
	case OptAdamW:
		return nn.NewAdamW(nil, cfg.AdamW)
	}
	return nil
}

// refreshOptimizer rebinds the optimizer to the current parameter set
// after an Assign or Fetch changed the hosted experts, preserving
// per-parameter state (AdamW moment estimates) for the parameters that
// survive the change; a new expert's moments start at zero. Called with
// w.mu held for writing.
func (w *Worker) refreshOptimizer() {
	if w.opt != nil {
		w.opt.Rebind(w.params())
	}
}

// Serve runs the worker's request loop until a shutdown arrives or a
// connection fails, and returns nil on clean shutdown. Each conn is one
// master; a turn takes one message from each, in master order, and
// answers each (see turn). A master sends a request only once the previous
// one's reply has arrived, so nothing legitimate ever waits behind a
// computing frame; the one message that can is a duplicated delivery,
// which then runs — and, for a backward frame, fails as a whole on its
// consumed activations — strictly after the original has replied, where
// the master discards it by Seq. Only a one-master worker traces.
//
// Every conn's Send serializes (transport.Conn), so a reply may alias the
// experts' output buffers, which nothing rewrites before it is sent, and
// the dispatch frames Recv decoded from the codec pools go back to them
// once the turn's replies are sent (see retire).
func (w *Worker) Serve(conns ...transport.Conn) error {
	if len(conns) == 0 {
		return fmt.Errorf("broker: worker %d: no master connection to serve", w.ID)
	}
	msgs, replies := make([]*wire.Message, len(conns)), make([]*wire.Message, len(conns))
	for {
		for i, c := range conns {
			msg, err := c.Recv()
			if err != nil {
				return fmt.Errorf("broker: worker %d recv: %w", w.ID, err)
			}
			msgs[i] = msg
		}
		msg := msgs[0]
		// Arrival on the worker tracer's clock: the queue-wait anchor for
		// dispatch frames and the t1 echo for clock pings.
		var arrivedAt int64
		if w.cfg.Obs != nil && len(conns) == 1 {
			arrivedAt = w.cfg.Obs.Trace.Clock()
		}
		// Only dispatch frames are traced as requests.
		traced := w.cfg.Obs != nil && len(conns) == 1 && (msg.Type == wire.MsgForwardMulti || msg.Type == wire.MsgBackwardMulti)
		if traced {
			w.cfg.Obs.OnWorkerRecv(w.ID, int(msg.Layer), int(msg.Expert), msg.Seq,
				arrivedAt, wire.EncodedSize(msg))
		}
		done := w.turn(msgs, replies, arrivedAt)
		for i, reply := range replies {
			if reply == nil {
				continue
			}
			var bytes int
			var sendT0 int64
			if traced {
				bytes = wire.EncodedSize(reply)
				sendT0 = w.cfg.Obs.Trace.Clock()
			}
			if err := conns[i].Send(reply); err != nil {
				return fmt.Errorf("broker: worker %d send: %w", w.ID, err)
			}
			if traced {
				w.cfg.Obs.OnWorkerReply(w.ID, int(msg.Layer), int(msg.Expert), msg.Seq,
					time.Duration(w.cfg.Obs.Trace.Clock()-sendT0), bytes)
			}
		}
		w.retire(msgs)
		if done {
			return nil
		}
	}
}

// retire returns a turn's dispatch frames to the codec pools once their
// replies are sent. No decoded frame outlives its turn: turnMulti copied
// every batch it computed on into the tensor arena.
func (w *Worker) retire(msgs []*wire.Message) {
	for _, msg := range msgs {
		if msg.Type == wire.MsgForwardMulti || msg.Type == wire.MsgBackwardMulti {
			wire.Release(msg)
		}
	}
}

// turn answers one message per master in replies and reports whether
// serving ends; arrivedAt is 0 unless a traced worker serves one master.
// K masters, each training on its own share of the rows, must agree on
// Type, Layer and Expert (dispatch frames on the id row too), or all get
// MsgError. Every dispatch turn goes to turnMulti; anything else runs
// once, a MsgStep of K>1 masters after scaling the expert gradients by
// 1/K, as each share's rows carry its mean.
func (w *Worker) turn(msgs, replies []*wire.Message, arrivedAt int64) (done bool) {
	first := msgs[0]
	dispatch := first.Type == wire.MsgForwardMulti || first.Type == wire.MsgBackwardMulti
	if len(msgs) == 1 && !dispatch {
		replies[0], done = w.handleAt(first, arrivedAt)
		return done
	}
	var err error
	for i, msg := range msgs[1:] {
		if msg.Type != first.Type || msg.Layer != first.Layer || msg.Expert != first.Expert {
			err = fmt.Errorf("broker: worker %d: turn disagrees: master %d sent %v L%d/E%d, master 0 %v L%d/E%d",
				w.ID, i+1, msg.Type, msg.Layer, msg.Expert, first.Type, first.Layer, first.Expert)
		}
	}
	switch {
	case err != nil:
	case dispatch:
		err = w.turnMulti(msgs, replies, arrivedAt)
	default:
		if first.Type == wire.MsgStep {
			w.mu.Lock()
			for _, e := range w.experts {
				for _, p := range nn.CollectTrainable(e.Params()) {
					p.Grad.ScaleInPlace(1 / float64(len(msgs)))
				}
			}
			w.mu.Unlock()
		}
		var reply *wire.Message
		reply, done = w.handleAt(first, arrivedAt)
		for i, msg := range msgs {
			r := *reply
			r.Seq, r.Tensors = msg.Seq, slices.Clone(reply.Tensors)
			replies[i] = &r
		}
	}
	if err != nil {
		for i, msg := range msgs {
			replies[i] = errMsg(msg, err)
		}
	}
	return done
}

// turnMulti runs each expert of a dispatch turn, one master's frame or
// K's, once over its rows from every master concatenated in master order,
// and answers each master its own rows, echoing the id row. The experts
// compute side by side through tensor.Fanout; any failure fails the turn
// with one MsgError per master. An expert with no rows is not computed
// and answers 0 rows. Each batch computed on is a copy in the tensor
// arena, so no decoded frame outlives the turn: a forward's copy stays in
// cats until that expert's backward, and a failed turn's are left to the
// GC.
func (w *Worker) turnMulti(msgs, replies []*wire.Message, arrivedAt int64) error {
	first := msgs[0]
	backward, resType := first.Type == wire.MsgBackwardMulti, wire.MsgForwardMultiResult
	if backward {
		resType = wire.MsgBackwardMultiResult
	}
	if err := w.checkFrame(first); err != nil {
		return err
	}
	k := len(first.Tensors) - 1
	ids, ins, bufs := reuse(&w.ids, k), reuse(&w.ins, k), reuse(&w.bufs, k)
	for i := range ins {
		ids[i] = moe.ExpertID{Layer: int(first.Layer), Expert: int(first.Tensors[0].Data[i])}
		in := &ins[i]
		in.Cols, in.Enc = first.Tensors[1+i].Cols, first.Tensors[1+i].Enc
		for j, msg := range msgs {
			if len(msg.Tensors) != 1+k || msg.Tensors[1+i].Cols != in.Cols || !slices.Equal(msg.Tensors[0].Data, first.Tensors[0].Data) {
				return fmt.Errorf("broker: worker %d: turn disagrees: master %d's %v frame differs from master 0's", w.ID, j, msg.Type)
			}
			in.Rows += msg.Tensors[1+i].Rows
		}
		if in.Rows > 0 {
			if in.Cols <= 0 {
				return fmt.Errorf("broker: worker %d: %v batch for %v has no features", w.ID, first.Type, ids[i])
			}
			bufs[i] = tensor.GetDirty(in.Rows, in.Cols)
			off := 0
			for _, msg := range msgs {
				off += copy(bufs[i].Data[off:], msg.Tensors[1+i].Data)
			}
			in.Data = bufs[i].Data
		}
	}
	res, errs := reuse(&w.res, k), reuse(&w.errs, k)
	tensor.Fanout(k, func(i int) {
		res[i] = wire.Matrix{Cols: ins[i].Cols}
		if ins[i].Rows > 0 {
			res[i], errs[i] = w.runExpert(ids[i], backward, &ins[i], first.Seq, arrivedAt)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, buf := range bufs {
		if buf != nil {
			tensor.Put(w.cats[ids[i]]) // the last forward's input: replaced, or consumed by this backward
			if backward {
				tensor.Put(buf)
				buf = nil
			}
			w.cats[ids[i]] = buf
		}
	}
	for j, msg := range msgs {
		outs := append(make([]wire.Matrix, 0, 1+k), msg.Tensors[0])
		for i := range res {
			r, n := &res[i], msg.Tensors[1+i].Rows*res[i].Cols // this master's share, taken off the front
			outs = append(outs, wire.Matrix{Rows: msg.Tensors[1+i].Rows, Cols: r.Cols, Data: r.Data[:n:n], Enc: msg.Tensors[1+i].Enc})
			r.Data = r.Data[n:]
		}
		replies[j] = &wire.Message{Type: resType, Layer: msg.Layer, Expert: wire.ExpertCoalesced, Seq: msg.Seq, Tensors: outs}
	}
	return nil
}

// reuse returns *s resized to n zero values, growing it only past its
// capacity.
func reuse[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	clear(*s)
	return *s
}

// handleAt processes one message other than a dispatch frame (turn gives
// those to turnMulti) and returns the reply (nil for none) and whether
// the serve loop should terminate. arrivedAt is the message's arrival on
// the worker tracer's clock (0 when uninstrumented): the t1 echo for
// clock pings.
func (w *Worker) handleAt(msg *wire.Message, arrivedAt int64) (reply *wire.Message, done bool) {
	switch msg.Type {
	case wire.MsgAssign:
		ex, en, err := decodeExpertState(msg)
		if err != nil {
			return errMsg(msg, err), false
		}
		sum := baseSum(frozenOf(ex))
		w.mu.Lock()
		w.experts[ex.ID] = ex
		w.specs[ex.ID] = en.spec
		w.baseSums[ex.ID] = sum
		w.refreshOptimizer()
		if adam, ok := w.opt.(*nn.AdamW); ok && en.opt != nil {
			// Shipped optimizer state (a restore, a migration or a
			// resume) is the expert's state from now on: its moments, and
			// the worker's clock set, not raised, to the shipped one —
			// a retried step's restore rolls a clock that already stepped
			// back to the boundary. parseEntry matched the moments to the
			// trainable parameters.
			for i, p := range nn.CollectTrainable(ex.Params()) {
				adam.SetMoments(p, en.opt.M[i].Data, en.opt.V[i].Data)
			}
			adam.SetStepCount(en.opt.Step)
		}
		w.mu.Unlock()
		return &wire.Message{Type: wire.MsgAck, Layer: msg.Layer, Expert: msg.Expert, Seq: msg.Seq}, false

	case wire.MsgFetch:
		id := moe.ExpertID{Layer: int(msg.Layer), Expert: int(msg.Expert)}
		// Release: the expert's new host was installed from a snapshot
		// before the master sent this, so the reply carries no state.
		w.mu.Lock()
		_, ok := w.experts[id]
		if ok {
			delete(w.experts, id)
			delete(w.specs, id)
			delete(w.baseSums, id)
			w.refreshOptimizer()
		}
		w.mu.Unlock()
		if !ok {
			return errMsg(msg, fmt.Errorf("broker: worker %d does not host %v", w.ID, id)), false
		}
		return &wire.Message{Type: wire.MsgFetchResult, Layer: msg.Layer, Expert: msg.Expert, Seq: msg.Seq}, false

	case wire.MsgZeroGrad:
		// Only what the optimizer steps: a frozen parameter has no Grad.
		w.mu.Lock()
		for _, e := range w.experts {
			nn.ZeroGrads(nn.CollectTrainable(e.Params()))
		}
		w.mu.Unlock()
		return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, false

	case wire.MsgStep:
		if w.opt == nil {
			return errMsg(msg, fmt.Errorf("broker: worker %d: unknown optimizer kind %d", w.ID, w.cfg.Optimizer)), false
		}
		w.mu.Lock()
		w.opt.Step()
		w.mu.Unlock()
		return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, false

	case wire.MsgPing:
		if len(msg.Tensors) == 1 && msg.Tensors[0].Rows == 1 && msg.Tensors[0].Cols == 1 {
			// Clock-sampling ping: echo the master's t0 with this worker's
			// receive (t1) and reply (t2) timestamps — the NTP-style
			// 4-timestamp exchange the master's ClockSync folds in. An
			// uninstrumented worker echoes t1 = t2 = 0, which the master
			// discards.
			var t2 int64
			if w.cfg.Obs != nil {
				t2 = w.cfg.Obs.Trace.Clock()
			}
			return &wire.Message{Type: wire.MsgPong, Seq: msg.Seq, Tensors: []wire.Matrix{{
				Rows: 1, Cols: 3,
				Data: []float64{msg.Tensors[0].Data[0], float64(arrivedAt), float64(t2)},
			}}}, false
		}
		return &wire.Message{Type: wire.MsgPong, Seq: msg.Seq}, false

	case wire.MsgTraceFetch:
		// Step-boundary trace pull: ship every retained event past the
		// master's cursor. Tensors[0] echoes the new cursor plus the
		// ring's lifetime drop count so the master can detect gaps.
		var from uint64
		if len(msg.Tensors) == 1 && msg.Tensors[0].Rows == 1 && msg.Tensors[0].Cols == 1 {
			from = uint64(msg.Tensors[0].Data[0])
		}
		var evs []obs.Event
		var cursor, dropped uint64
		if w.cfg.Obs != nil {
			evs, cursor = w.cfg.Obs.Trace.SnapshotFrom(from)
			dropped = w.cfg.Obs.Trace.Dropped()
		}
		out := &wire.Message{Type: wire.MsgTraceFetchResult, Seq: msg.Seq, Tensors: []wire.Matrix{
			{Rows: 1, Cols: 2, Data: []float64{float64(cursor), float64(dropped)}},
		}}
		if len(evs) > 0 {
			out.Tensors = append(out.Tensors, wire.Matrix{
				Rows: len(evs), Cols: obs.EventRowWidth, Data: obs.EventsToRows(evs),
			})
		}
		return out, false

	case wire.MsgSnapshot:
		id := moe.ExpertID{Layer: int(msg.Layer), Expert: int(msg.Expert)}
		w.mu.RLock()
		ex, ok := w.experts[id]
		spec := w.specs[id]
		var out *wire.Message
		if ok {
			// The reply views the live weights and moments. Serve's Send
			// encodes them before the next turn can step, so the frame is
			// a consistent step boundary.
			out = encodeExpertSnapshot(ex, spec, w.optStateOf(ex), w.baseSums[id])
		}
		w.mu.RUnlock()
		if !ok {
			return errMsg(msg, fmt.Errorf("broker: worker %d does not host %v", w.ID, id)), false
		}
		out.Seq = msg.Seq
		return out, false

	case wire.MsgShutdown:
		return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, true

	default:
		return errMsg(msg, fmt.Errorf("broker: worker %d: unexpected message %v", w.ID, msg.Type)), false
	}
}

// checkFrame validates a dispatch frame: a 1×K row of K distinct expert
// ids, then their K batches. A garbage or repeated id is refused before
// anything computes: a second compute of one expert would overwrite the
// activations its first one's backward needs.
func (w *Worker) checkFrame(msg *wire.Message) error {
	k := len(msg.Tensors) - 1
	if k < 1 || msg.Tensors[0].Rows != 1 || msg.Tensors[0].Cols != k {
		return fmt.Errorf("broker: worker %d: malformed %v frame (%d tensors)", w.ID, msg.Type, len(msg.Tensors))
	}
	ids := msg.Tensors[0].Data
	for i, v := range ids {
		if !(v >= 0 && v <= math.MaxInt32 && v == math.Trunc(v)) {
			return fmt.Errorf("broker: worker %d: %v frame names expert id %v", w.ID, msg.Type, v)
		}
		if slices.Contains(ids[:i], v) {
			return fmt.Errorf("broker: worker %d: %v frame names expert %v twice", w.ID, msg.Type, v)
		}
	}
	return nil
}

// runExpert runs one expert's forward or backward over a batch and
// returns the reply matrix with its wire encoding stamped: a view of the
// expert's output buffer, which Serve's Send encodes before the expert
// runs again. It holds the worker's read barrier; the turn's other
// computes run on other experts.
//
// A panic out of the expert compute (an nn shape/state precondition — a
// chaos transport can deliver a duplicated backward frame whose second
// execution finds its activations already consumed) is converted into an
// error reply: one poisoned request must cost one MsgError, not the
// whole worker process.
func (w *Worker) runExpert(id moe.ExpertID, backward bool, in *wire.Matrix, seq uint64, arrivedAt int64) (out wire.Matrix, err error) {
	dir := "forward"
	if backward {
		dir = "backward"
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.experts[id]
	if !ok {
		return out, fmt.Errorf("broker: worker %d does not host %v", w.ID, id)
	}
	// Validate the batch geometry against the expert's architecture
	// before any nn code sees it: the nn layers treat a feature-width
	// mismatch as a shape-precondition panic, which on a served request
	// would take the whole worker down instead of producing a MsgError.
	if spec := w.specs[id]; spec.D > 0 && in.Cols != spec.D {
		return out, fmt.Errorf("broker: worker %d: %s batch has %d features, expert %v expects %d",
			w.ID, dir, in.Cols, id, spec.D)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = wire.Matrix{}, fmt.Errorf("broker: worker %d: %s on %v panicked: %v", w.ID, dir, id, r)
		}
	}()
	var t0 int64
	if w.cfg.Obs != nil {
		t0 = w.cfg.Obs.Trace.Clock()
		// Queue wait: frame arrival → compute start. arrivedAt of 0
		// means the caller had no tracer at Recv time; skip rather than
		// record a bogus epoch-relative wait.
		if arrivedAt > 0 {
			w.cfg.Obs.OnWorkerQueue(w.ID, id.Layer, id.Expert, seq, time.Duration(t0-arrivedAt))
		}
	}
	var y *tensor.Tensor
	if backward {
		y = e.Backward(tensorOf(*in))
	} else {
		y = e.Forward(tensorOf(*in))
	}
	// A reply mirrors its request's encoding; Send quantizes as it
	// encodes, so the worker only stamps it.
	out = matrixOf(y)
	out.Enc = in.Enc
	if w.cfg.Obs != nil {
		w.cfg.Obs.OnCompute(w.ID, id.Layer, id.Expert, seq, time.Duration(w.cfg.Obs.Trace.Clock()-t0))
	}
	return out, nil
}

// optStateOf collects the AdamW slice for one hosted expert: the
// bias-correction clock plus the (m, v) pair of every trainable
// parameter, in nn.CollectTrainable order. It returns nil for SGD, which
// has no state to ship. Every hosted expert is bound (Assign rebinds), so
// a snapshot taken before the first step carries its zero moments too.
// The returned matrices alias live optimizer memory, which Serve's Send
// encodes before it runs the next turn. Called with w.mu held (read or
// write).
func (w *Worker) optStateOf(ex *moe.Expert) *expertOptState {
	adam, ok := w.opt.(*nn.AdamW)
	if !ok {
		return nil
	}
	st := &expertOptState{Step: adam.StepCount()}
	for _, p := range nn.CollectTrainable(ex.Params()) {
		m, v := adam.Moments(p)
		st.M = append(st.M, matrixOf(m))
		st.V = append(st.V, matrixOf(v))
	}
	return st
}

func errMsg(req *wire.Message, err error) *wire.Message {
	return &wire.Message{Type: wire.MsgError, Layer: req.Layer, Expert: req.Expert, Seq: req.Seq, Text: err.Error()}
}
