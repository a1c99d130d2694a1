package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Span names. A step span's direct children are the data, exchange and
// optimizer spans; what they leave uncovered is the backbone's self time.
const (
	spanStep        = "trainer.step"
	spanNext        = "data.next"
	spanExchangeFwd = "broker.exchange.fwd"
	spanExchangeBwd = "broker.exchange.bwd"
	spanLocalFwd    = "moe.local_experts.fwd"
	spanLocalBwd    = "moe.local_experts.bwd"
	spanExpertOpt   = "broker.expert_opt"
	spanBackboneOpt = "nn.backbone_opt"
	spanSnapshot    = "checkpoint.snapshot"
	spanRunSave     = "checkpoint.run_save"
	spanRebalance   = "broker.rebalance"
	spanSendWire    = "transport.send_wire"
	spanWorkerBusy  = "broker.worker_busy"
	spanReplyWire   = "transport.reply_wire"
)

// Span is one timed interval of the traced run. Times are nanoseconds on
// the process's monotonic clock since the recorder was made; master and
// workers share the process, so spans of both sides are on one clock.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Step   int    `json:"step"`
	Seq    uint64 `json:"seq,omitempty"`    // frame correlation id, wire spans only
	Worker int    `json:"worker,omitempty"` // wire spans only
	Layer  int    `json:"layer,omitempty"`
}

// frame is the four timestamps of one request/reply pair, collected by
// the conn taps on both ends and joined by the request's Seq.
type frame struct {
	seq        uint64
	worker     int
	parent     int // span open on the training goroutine at Send
	step       int
	typ        wire.MsgType
	sendCall   int64 // master Send called (before any shaped wait)
	workerRecv int64 // worker Recv returned
	workerSend int64 // worker Send called
	recvRet    int64 // master Recv returned (after any shaped wait)
	shapedWait int64 // injected link sleep on this pair, both directions
}

// Recorder keeps the traced run's spans in memory; Dump writes them out
// when the run ends. begin/end run on the training goroutine only; the
// conn taps run on the broker's and the workers' goroutines. All methods
// are no-ops on a nil Recorder, which is what a timed run passes.
type Recorder struct {
	base time.Time
	// on gates recording: the traced run switches it off on alternate
	// steps to measure the recording's own cost.
	on atomic.Bool
	// cur is the innermost span open on the training goroutine (-1 for
	// none) and step the current step, read by the conn taps.
	cur  atomic.Int64
	step atomic.Int64

	mu     sync.Mutex
	spans  []Span
	stack  []int
	frames map[uint64]*frame
	// captured is a deep copy of the first coalesced forward request, the
	// payload the standalone codec measurements run on.
	captured *wire.Message
}

// NewRecorder returns a recorder with recording on.
func NewRecorder() *Recorder {
	r := &Recorder{base: time.Now(), spans: make([]Span, 0, 1<<14), frames: make(map[uint64]*frame, 1<<12)}
	r.cur.Store(-1)
	r.on.Store(true)
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// startStep marks the beginning of step k. Even steps record and odd
// steps do not: the two interleaved halves of a traced run see the same
// machine state, so the difference of their medians is the recording's
// own cost.
func (r *Recorder) startStep(k int) {
	if r == nil {
		return
	}
	r.step.Store(int64(k))
	r.on.Store(k%2 == 0)
}

// startHook marks the step-boundary hook after step k; hooks always
// record.
func (r *Recorder) startHook() {
	if r != nil {
		r.on.Store(true)
	}
}

func (r *Recorder) recording() bool { return r != nil && r.on.Load() }

// begin opens a span under the innermost open one and returns its id, or
// -1 when not recording.
func (r *Recorder) begin(name string, layer int) int {
	if !r.recording() {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: t, Parent: parent, Step: int(r.step.Load()), Layer: layer})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	r.cur.Store(int64(id))
	return id
}

// end closes the span begin returned.
func (r *Recorder) end(id int) {
	if id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.stack = r.stack[:len(r.stack)-1]
	top := -1
	if n := len(r.stack); n > 0 {
		top = r.stack[n-1]
	}
	r.mu.Unlock()
	r.cur.Store(int64(top))
}

// frameAt returns the record of the pair with the given Seq, creating it:
// the worker may see a request before the master's Send has returned.
// Called with r.mu held.
func (r *Recorder) frameAt(seq uint64) *frame {
	f := r.frames[seq]
	if f == nil {
		f = &frame{seq: seq}
		r.frames[seq] = f
	}
	return f
}

// Dump writes every span, and the three wire spans of every complete
// frame pair, as one JSON object per line.
func (r *Recorder) Dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, fr := range r.frames {
		if !fr.complete() {
			continue
		}
		for _, s := range fr.spans() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func (f *frame) complete() bool {
	return f.sendCall > 0 && f.workerRecv > 0 && f.workerSend > 0 && f.recvRet > 0
}

func (f *frame) spans() [3]Span {
	mk := func(name string, start, end int64) Span {
		return Span{Name: name, Start: start, End: end, Parent: f.parent, Step: f.step, Seq: f.seq, Worker: f.worker}
	}
	return [3]Span{
		mk(spanSendWire, f.sendCall, f.workerRecv),
		mk(spanWorkerBusy, f.workerRecv, f.workerSend),
		mk(spanReplyWire, f.workerSend, f.recvRet),
	}
}

// masterTap is the master-side conn wrapper of a traced run. It sits
// outside the shaped link, so a Send call is stamped before the link
// wait and a Recv return after it. Embedding transport.Metered (with no
// meter) gives it the production wrapper's Deadliner/Serializer
// delegation.
type masterTap struct {
	*transport.Metered
	rec    *Recorder
	worker int
	link   *Shaped // nil on raw loopback
}

func newMasterTap(conn transport.Conn, link *Shaped, rec *Recorder, worker int) *masterTap {
	return &masterTap{Metered: transport.WithMeter(conn, nil), rec: rec, worker: worker, link: link}
}

// Send implements transport.Conn.
func (c *masterTap) Send(msg *wire.Message) error {
	if !c.rec.recording() {
		return c.Metered.Send(msg)
	}
	seq, typ := msg.Seq, msg.Type
	w0, _ := c.link.Waited()
	t := c.rec.now()
	r := c.rec
	r.mu.Lock()
	f := r.frameAt(seq)
	f.worker, f.typ, f.sendCall = c.worker, typ, t
	f.parent, f.step = int(r.cur.Load()), int(r.step.Load())
	if r.captured == nil && typ == wire.MsgForwardMulti {
		r.captured = cloneMessage(msg)
	}
	r.mu.Unlock()
	err := c.Metered.Send(msg)
	w1, _ := c.link.Waited()
	r.mu.Lock()
	f.shapedWait += int64(w1 - w0)
	r.mu.Unlock()
	return err
}

// Recv implements transport.Conn.
func (c *masterTap) Recv() (*wire.Message, error) {
	if !c.rec.recording() {
		return c.Metered.Recv()
	}
	_, w0 := c.link.Waited()
	msg, err := c.Metered.Recv()
	if err != nil {
		return msg, err
	}
	t := c.rec.now()
	_, w1 := c.link.Waited()
	r := c.rec
	r.mu.Lock()
	f := r.frameAt(msg.Seq)
	f.recvRet = t
	f.shapedWait += int64(w1 - w0)
	r.mu.Unlock()
	return msg, nil
}

// workerTap is the worker-side conn wrapper of a traced run; broker.Worker
// needs only Send and Recv of its conn.
type workerTap struct {
	transport.Conn
	rec *Recorder
}

// Send stamps the reply's departure from the worker.
func (c *workerTap) Send(msg *wire.Message) error {
	if c.rec.recording() {
		t := c.rec.now()
		c.rec.mu.Lock()
		c.rec.frameAt(msg.Seq).workerSend = t
		c.rec.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// Recv stamps the request's arrival at the worker.
func (c *workerTap) Recv() (*wire.Message, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.rec.recording() {
		t := c.rec.now()
		c.rec.mu.Lock()
		c.rec.frameAt(msg.Seq).workerRecv = t
		c.rec.mu.Unlock()
	}
	return msg, err
}

// cloneMessage deep-copies a message: the broker reuses batch buffers.
func cloneMessage(m *wire.Message) *wire.Message {
	c := *m
	c.Tensors = make([]wire.Matrix, len(m.Tensors))
	for i, t := range m.Tensors {
		t.Data = append([]float64(nil), t.Data...)
		c.Tensors[i] = t
	}
	return &c
}

// tracedExec times the moe.Executor boundary: one span per
// ForwardExperts/BackwardExperts call.
type tracedExec struct {
	inner    moe.Executor
	rec      *Recorder
	fwd, bwd string
}

// ForwardExperts implements moe.Executor.
func (x *tracedExec) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	id := x.rec.begin(x.fwd, layer)
	out, err := x.inner.ForwardExperts(layer, batches)
	x.rec.end(id)
	return out, err
}

// BackwardExperts implements moe.Executor.
func (x *tracedExec) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	id := x.rec.begin(x.bwd, layer)
	out, err := x.inner.BackwardExperts(layer, grads)
	x.rec.end(id)
	return out, err
}

// tracedBatches times trainer.BatchSource.Next.
type tracedBatches struct {
	trainer.BatchSource
	rec *Recorder
}

// Next implements trainer.BatchSource.
func (b *tracedBatches) Next() ([]int, []int) {
	id := b.rec.begin(spanNext, 0)
	ids, targets := b.BatchSource.Next()
	b.rec.end(id)
	return ids, targets
}

// tracedOpt times nn.Optimizer.Step.
type tracedOpt struct {
	inner nn.Optimizer
	rec   *Recorder
}

// Step implements nn.Optimizer.
func (o *tracedOpt) Step() {
	id := o.rec.begin(spanBackboneOpt, 0)
	o.inner.Step()
	o.rec.end(id)
}

// tracedFunc times one of the Finetuner's func fields.
func tracedFunc(rec *Recorder, name string, fn func() error) func() error {
	return func() error {
		id := rec.begin(name, 0)
		err := fn()
		rec.end(id)
		return err
	}
}
