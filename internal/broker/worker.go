package broker

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
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
	Optimizer OptimizerKind
	// LR is used when Optimizer is OptSGD.
	LR float64
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
// serves forward/backward dispatch frames from the master, and applies
// local optimizer steps to the trainable (LoRA) parameters of its experts.
//
// Concurrency model: Serve handles one message at a time. A dispatch
// frame's experts compute side by side holding mu for reading, and they
// are distinct experts — handleMulti refuses a frame that names one
// twice — so no two computes touch one expert's cached activations.
// Whatever mutates the expert table or optimizer state holds mu for
// writing.
//
// The zero value is not usable; call NewWorker.
type Worker struct {
	ID  int
	cfg WorkerConfig

	mu      sync.RWMutex
	experts map[moe.ExpertID]*moe.Expert
	specs   map[moe.ExpertID]ExpertSpec
	opt     nn.Optimizer
	// momentSeeds holds AdamW moment state that arrived with a MsgAssign
	// (a failover restore or run-level resume) before the optimizer
	// existed; it is folded in when the optimizer is built or rebound.
	momentSeeds map[moe.ExpertID]*expertOptState
	// lastStep is the highest step ordinal applied (MsgStep.Layer > 0):
	// a post-failover re-broadcast of an ordinal this worker already
	// stepped is acked without stepping twice.
	lastStep int
	// baseSums holds each expert's digest of its frozen parameters,
	// computed once when it is assigned (they never change afterwards) and
	// stamped on every delta snapshot of it.
	baseSums map[moe.ExpertID]uint32
}

// NewWorker creates an Expert Manager with no experts assigned yet.
func NewWorker(id int, cfg WorkerConfig) *Worker {
	return &Worker{
		ID: id, cfg: cfg,
		experts:     make(map[moe.ExpertID]*moe.Expert),
		specs:       make(map[moe.ExpertID]ExpertSpec),
		baseSums:    make(map[moe.ExpertID]uint32),
		momentSeeds: make(map[moe.ExpertID]*expertOptState),
	}
}

// NumExperts returns the number of experts currently hosted.
func (w *Worker) NumExperts() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.experts)
}

// params returns the parameters of all hosted experts. The order follows
// map iteration and is NOT deterministic; callers (checksums, optimizer
// rebinding) must not depend on it.
func (w *Worker) params() []*nn.Param {
	var ps []*nn.Param
	for _, e := range w.experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// refreshOptimizer rebinds the optimizer to the current parameter set
// after an Assign or Fetch changed the hosted experts, preserving
// per-parameter state (AdamW moment estimates, step count) for the
// parameters that survive the change. Called with w.mu held for writing.
func (w *Worker) refreshOptimizer() {
	if w.opt == nil {
		return // not built yet; it will be built lazily at the next Step
	}
	if r, ok := w.opt.(nn.Rebinder); ok {
		r.Rebind(w.params())
		return
	}
	// Non-rebinding optimizers are rebuilt lazily at the next Step (the
	// rebuild starts from fresh state either way, and deferring it lets
	// a configuration error surface as a MsgError reply).
	w.opt = nil
}

// Serve runs the worker's request loop on conn until a shutdown message
// arrives or the connection fails, handling every message in arrival
// order on the calling goroutine. The master serializes rounds per
// connection (one dispatch frame or one control round in flight at a
// time), so nothing legitimate ever waits behind a computing frame; the
// one message that can is a duplicated delivery, which then runs — and,
// for a backward frame, fails as a whole on its consumed activations —
// strictly after the original has replied, where the master discards it
// by Seq. A frame's parallelism is inside it (see handleMulti). It
// returns nil on clean shutdown.
func (w *Worker) Serve(conn interface {
	Send(*wire.Message) error
	Recv() (*wire.Message, error)
}) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("broker: worker %d recv: %w", w.ID, err)
		}
		// Arrival on the worker tracer's clock: the queue-wait anchor for
		// dispatch frames and the t1 echo for clock pings.
		var arrivedAt int64
		if w.cfg.Obs != nil {
			arrivedAt = w.cfg.Obs.Trace.Clock()
		}
		// Only dispatch frames are traced as requests.
		traced := w.cfg.Obs != nil && (msg.Type == wire.MsgForwardMulti || msg.Type == wire.MsgBackwardMulti)
		if traced {
			w.cfg.Obs.OnWorkerRecv(w.ID, int(msg.Layer), int(msg.Expert), msg.Seq,
				arrivedAt, wire.EncodedSize(msg))
		}
		reply, done := w.handleAt(msg, arrivedAt)
		if reply != nil {
			// Size before Send: over the in-process pipe the receiver owns
			// the reply as soon as Send returns.
			var bytes int
			var sendT0 int64
			if traced {
				bytes = wire.EncodedSize(reply)
				sendT0 = w.cfg.Obs.Trace.Clock()
			}
			if err := conn.Send(reply); err != nil {
				return fmt.Errorf("broker: worker %d send: %w", w.ID, err)
			}
			if traced {
				w.cfg.Obs.OnWorkerReply(w.ID, int(msg.Layer), int(msg.Expert), msg.Seq,
					time.Duration(w.cfg.Obs.Trace.Clock()-sendT0), bytes)
			}
		}
		if done {
			return nil
		}
	}
}

// handle processes one message with no arrival timestamp (tests and
// direct drivers); the serve loop calls handleAt with the real one.
func (w *Worker) handle(msg *wire.Message) (reply *wire.Message, done bool) {
	return w.handleAt(msg, 0)
}

// handleAt processes one message and returns the reply (nil for none)
// and whether the serve loop should terminate. arrivedAt is the frame's
// arrival on the worker tracer's clock (0 when uninstrumented): the
// queue-wait anchor for compute requests and the t1 echo for clock
// pings.
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
		if en.opt != nil {
			// Shipped optimizer state (failover restore, migration, or
			// run-level resume): seed it into the live optimizer now, or
			// stash it for the lazy build at the first Step.
			w.momentSeeds[ex.ID] = en.opt
			w.applyMomentSeeds()
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
			delete(w.momentSeeds, id)
			w.refreshOptimizer()
		}
		w.mu.Unlock()
		if !ok {
			return errMsg(msg, fmt.Errorf("broker: worker %d does not host %v", w.ID, id)), false
		}
		return &wire.Message{Type: wire.MsgFetchResult, Layer: msg.Layer, Expert: msg.Expert, Seq: msg.Seq}, false

	case wire.MsgForwardMulti, wire.MsgBackwardMulti:
		return w.handleMulti(msg, arrivedAt), false

	case wire.MsgZeroGrad:
		// Only what the optimizer steps: nothing writes a frozen
		// parameter's Grad (nn.Linear.Backward skips dW for it).
		w.mu.Lock()
		for _, e := range w.experts {
			nn.ZeroGrads(nn.CollectTrainable(e.Params()))
		}
		w.mu.Unlock()
		return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, false

	case wire.MsgStep:
		ord := int(msg.Layer)
		w.mu.Lock()
		if ord > 0 && ord <= w.lastStep {
			// Re-broadcast of an ordinal this worker already applied (the
			// master is retrying a step after a failover): ack idempotently.
			w.mu.Unlock()
			return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, false
		}
		if w.opt == nil {
			opt, err := w.buildOptimizer()
			if err != nil {
				w.mu.Unlock()
				return errMsg(msg, err), false
			}
			w.opt = opt
			w.applyMomentSeeds()
		}
		w.opt.Step()
		if ord > 0 {
			w.lastStep = ord
		}
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
			// Deep copy under the read barrier: Step takes mu for writing,
			// so the copied tensors (trainable weights AND optimizer moments)
			// are a consistent step boundary.
			out = encodeExpertSnapshot(ex, spec, w.optStateOf(ex), w.baseSums[id])
		}
		w.mu.RUnlock()
		if !ok {
			return errMsg(msg, fmt.Errorf("broker: worker %d does not host %v", w.ID, id)), false
		}
		out.Seq = msg.Seq
		return out, false

	case wire.MsgStats:
		w.mu.Lock()
		sum := checksumParams(w.params())
		w.mu.Unlock()
		return &wire.Message{Type: wire.MsgStatsResult, Seq: msg.Seq,
			Tensors: []wire.Matrix{{Rows: 1, Cols: len(sum), Data: sum}}}, false

	case wire.MsgShutdown:
		return &wire.Message{Type: wire.MsgAck, Seq: msg.Seq}, true

	default:
		return errMsg(msg, fmt.Errorf("broker: worker %d: unexpected message %v", w.ID, msg.Type)), false
	}
}

// handleMulti serves one dispatch frame: Tensors[0] names K experts,
// Tensors[1..K] carry their batches (a single-expert request is K=1). The
// per-expert computes run side by side through tensor.Fanout — the
// fan-out moe.LocalExecutor uses too, at most tensor.Parallelism() at
// once — and the reply mirrors the frame layout, echoing the id row. Any expert failure fails the whole frame with one
// MsgError — the master treats a frame as one request.
func (w *Worker) handleMulti(msg *wire.Message, arrivedAt int64) *wire.Message {
	backward, resType := false, wire.MsgForwardMultiResult
	if msg.Type == wire.MsgBackwardMulti {
		backward, resType = true, wire.MsgBackwardMultiResult
	}
	k := len(msg.Tensors) - 1
	if k < 1 || msg.Tensors[0].Rows != 1 || msg.Tensors[0].Cols != k {
		return errMsg(msg, fmt.Errorf("broker: worker %d: malformed %v frame (%d tensors)",
			w.ID, msg.Type, len(msg.Tensors)))
	}
	ids := msg.Tensors[0]
	// Reject a garbage or repeated id before anything computes: a backward
	// that ran for the frame's other experts would consume their
	// activations, and a second compute of one expert would overwrite the
	// activations the first one's backward needs.
	for i, v := range ids.Data {
		if !(v >= 0 && v <= math.MaxInt32 && v == math.Trunc(v)) {
			return errMsg(msg, fmt.Errorf("broker: worker %d: %v frame names expert id %v", w.ID, msg.Type, v))
		}
		if slices.Contains(ids.Data[:i], v) {
			return errMsg(msg, fmt.Errorf("broker: worker %d: %v frame names expert %v twice", w.ID, msg.Type, v))
		}
	}
	outs := make([]wire.Matrix, 1+k)
	outs[0] = ids // echo so the master can re-correlate results
	errs := make([]error, k)
	tensor.Fanout(k, func(i int) {
		id := moe.ExpertID{Layer: int(msg.Layer), Expert: int(ids.Data[i])}
		outs[1+i], errs[i] = w.runExpert(id, backward, &msg.Tensors[1+i], msg.Seq, arrivedAt)
	})
	for _, err := range errs {
		if err != nil {
			return errMsg(msg, err)
		}
	}
	return &wire.Message{Type: resType, Layer: msg.Layer, Expert: wire.ExpertCoalesced,
		Seq: msg.Seq, Tensors: outs}
}

// runExpert runs one expert's forward or backward over a batch and
// returns the reply matrix with its wire encoding stamped. It holds the
// worker's read barrier; the frame's other computes run on other experts.
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
	// The copy is load-bearing: the expert's output is a reused buffer,
	// and the master may still be reading this reply when the expert's
	// next request overwrites it.
	out = matrixCopyOf(y)
	// A reply mirrors its request's encoding. The quantization itself
	// happens in the transport (TCP serializes per encoding; the
	// in-process pipe quantizes on Send), so the worker only stamps it.
	out.Enc = in.Enc
	if w.cfg.Obs != nil {
		w.cfg.Obs.OnCompute(w.ID, id.Layer, id.Expert, seq, time.Duration(w.cfg.Obs.Trace.Clock()-t0))
	}
	return out, nil
}

// optStateOf collects the AdamW slice for one hosted expert: the
// bias-correction clock plus the (m, v) pair of every trainable
// parameter, in nn.CollectTrainable order. It returns nil when there is
// no AdamW state to ship (SGD, or the optimizer not built yet and no
// stashed seed). The returned matrices alias live optimizer memory;
// callers that cross a step boundary must copy (encodeExpertSnapshot does).
// Called with w.mu held (read or write).
func (w *Worker) optStateOf(ex *moe.Expert) *expertOptState {
	adam, ok := w.opt.(*nn.AdamW)
	if !ok {
		// Optimizer not built yet: an expert restored-then-snapshotted
		// before the first Step still carries the moments it arrived with.
		return w.momentSeeds[ex.ID]
	}
	st := &expertOptState{Step: adam.StepCount()}
	for _, p := range nn.CollectTrainable(ex.Params()) {
		m, v := adam.Moments(p)
		if m == nil {
			// Not bound (a seed raced the rebind); ship without state
			// rather than a partial slice.
			return w.momentSeeds[ex.ID]
		}
		st.M = append(st.M, matrixOf(m))
		st.V = append(st.V, matrixOf(v))
	}
	return st
}

// applyMomentSeeds folds stashed optimizer slices into the live AdamW:
// each seeded expert's trainable parameters get their shipped (m, v)
// estimates, and the bias-correction clock is raised to the highest
// shipped value (never lowered — surviving experts on this worker are
// already at the right step). No-op until the optimizer is built; seeds
// then apply at the lazy build. Called with w.mu held for writing.
func (w *Worker) applyMomentSeeds() {
	adam, ok := w.opt.(*nn.AdamW)
	if !ok {
		return
	}
	for id, st := range w.momentSeeds {
		ex, hosted := w.experts[id]
		if !hosted {
			delete(w.momentSeeds, id)
			continue
		}
		trainable := nn.CollectTrainable(ex.Params())
		if len(trainable) != len(st.M) {
			delete(w.momentSeeds, id)
			continue
		}
		for i, p := range trainable {
			adam.SetMoments(p, st.M[i].Data, st.V[i].Data)
		}
		if st.Step > adam.StepCount() {
			adam.SetStepCount(st.Step)
		}
		delete(w.momentSeeds, id)
	}
}

// buildOptimizer constructs the configured optimizer over all trainable
// expert parameters. Called with w.mu held. A misconfigured kind is
// reported as an error (surfaced to the master as MsgError at the next
// Step) rather than panicking the worker process.
func (w *Worker) buildOptimizer() (nn.Optimizer, error) {
	ps := w.params()
	switch w.cfg.Optimizer {
	case OptSGD:
		return nn.NewSGD(ps, w.cfg.LR), nil
	case OptAdamW:
		return nn.NewAdamW(ps, w.cfg.AdamW), nil
	default:
		return nil, fmt.Errorf("broker: worker %d: unknown optimizer kind %d", w.ID, w.cfg.Optimizer)
	}
}

func errMsg(req *wire.Message, err error) *wire.Message {
	return &wire.Message{Type: wire.MsgError, Layer: req.Layer, Expert: req.Expert, Seq: req.Seq, Text: err.Error()}
}
