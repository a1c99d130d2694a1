package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxRecvRetries bounds the deadline extensions after a first expired
// reply wait (see Executor.RequestTimeout).
const maxRecvRetries = 2

// ErrWorkerDead is wrapped by every operation that targets a worker the
// supervisor has declared dead; errors.Is(err, ErrWorkerDead) lets the
// recovery path distinguish "known-dead, fail fast" from a fresh
// transport failure.
var ErrWorkerDead = errors.New("broker: worker marked dead")

// Executor is the master-side half of the Expert Broker: it implements
// moe.Executor by shipping per-expert token batches to the workers that
// host them (one-to-all, no all-to-all synchronization) and gathering the
// results. It also broadcasts optimizer control messages at step
// boundaries.
//
// Everything the master asks of its workers is a round (see round): a row
// of requests per worker, the rows driven side by side, every reply's
// type checked in one place. An exchange round is one multi-tensor frame
// per worker per direction. A row of several requests (Distribute,
// snapshots, restores) runs send-then-receive, one request at a time: at
// most one request is ever outstanding on a connection, so a round is
// deadlock-free however many requests target one worker, by construction
// rather than by an argument about transport buffering.
//
// An Executor is not safe for concurrent use: callers drive one exchange
// or control round at a time, exactly as the training loop does.
type Executor struct {
	// conns holds one connection slot per worker. Each slot is an atomic
	// box so a rejoin (training goroutine) can swap in a fresh connection
	// while the supervisor's heartbeat goroutine concurrently reads the
	// slot (MarkDead closes it to wake blocked rounds) — same publication
	// discipline as assign.
	conns []atomic.Pointer[connBox]
	// assign is the active expert→worker placement, published by atomic
	// pointer swap: migrations clone-and-swap (see Migrate) so the
	// supervisor's goroutine and metrics scrapers can read Assignment()
	// while a plan executes without ever observing a half-updated grid.
	assign atomic.Pointer[placement.Assignment]
	// Counters, when non-nil, is the runtime counter table: it receives
	// the logical byte accounting (rows × features × BytesPerValue per
	// transfer, one frame per worker per direction) and the
	// fault-tolerance counts of this executor and its Supervisor. A nil
	// table discards them.
	Counters *obs.Counters
	// BytesPerValue is the logical bit-depth of an exchanged feature in
	// bytes. The paper exchanges 16-bit features, so the default is 2.
	BytesPerValue float64
	// WireEncoding selects the on-wire representation of token batches
	// and gradients: wire.EncFP64 (exact), wire.EncFP16 (the paper's
	// 16-bit exchange, making the physical frame size match the
	// 2-bytes-per-value logical accounting at ~1e-3 relative precision),
	// or wire.EncInt8 (symmetric per-row absmax quantization, 1 byte per
	// value plus 8 bytes per row). Expert weights (Assign/Fetch) always
	// travel at full precision.
	WireEncoding wire.Encoding
	// Deprecated: ignored — dispatch is always coalesced; kept only so the
	// frozen stepbench module compiles; remove with the next benchmark PR.
	Coalesce bool
	// RequestTimeout, when > 0, bounds how long a round waits for each
	// reply before declaring a timeout. Timeouts are retried in place (the
	// request is never re-sent; the wait is extended with exponential
	// backoff) up to maxRecvRetries times, then surface as an error
	// wrapping transport.ErrTimeout.
	RequestTimeout time.Duration
	// BaseDir is the checkpoint.BaseStore the master puts every frozen
	// base it installs into, so that a worker reading the same store never
	// receives the base's bytes. Every delta install carries its base's
	// key whether or not the store takes the base (see install); an
	// unusable store — empty, shared, unwritable — only leaves the
	// workers' own stores and hosted experts to hit. NewExecutor sets it
	// to checkpoint.DefaultBaseDir().
	BaseDir string
	// Obs, when non-nil, receives the exchange-lifecycle trace (enqueue,
	// send, reply, decode), the latency/queue-wait/straggler histograms
	// and the exchange-phase spans. A nil handle costs one branch per
	// hook and records nothing.
	Obs *obs.Handle

	seq atomic.Uint64
	// connSem serializes rounds per connection so the supervisor's
	// heartbeats can interleave with the trainer's exchanges without a
	// mutex around blocking transport calls (channel semaphores keep the
	// broker within the locklint discipline).
	connSem []chan struct{}
	// dead[n] marks worker n as failed-over: its connection is closed and
	// every subsequent round against it fails fast with ErrWorkerDead.
	dead []atomic.Bool
	// resBufs holds the persistent per-(direction, layer, expert) result
	// buffers exchange copies pooled replies into before releasing them.
	// A forward output is read by the gate backward AFTER the backward
	// exchange (moe.Block caches it across the round), so result memory
	// must survive until the next same-direction exchange overwrites it —
	// which is exactly this map's overwrite cadence.
	resMu   sync.Mutex
	resBufs map[resultKey]*tensor.Tensor
	// base holds, per expert, the frozen parameters a delta entry leaves
	// out (see SetBase and install). Written before training starts and
	// read by the training goroutine's rounds only.
	base map[moe.ExpertID]expertBase
}

// expertBase is one expert's frozen parameters as the master keeps them:
// views of the grid's tensors, never copies, their digest, and their
// BaseStore key once install has taken it.
type expertBase struct {
	tensors []wire.Matrix
	sum     uint32
	key     string
}

// connBox wraps a connection so a slot can be swapped atomically (an
// interface value cannot live in an atomic.Pointer directly).
type connBox struct{ c transport.Conn }

// conn returns worker n's current connection.
func (x *Executor) conn(n int) transport.Conn { return x.conns[n].Load().c }

// resultKey identifies one persistent exchange-result buffer.
type resultKey struct {
	backward      bool
	layer, expert int
}

// stashResult copies one reply tensor into the executor's persistent
// result buffer for (direction, layer, expert), so the pooled reply can
// be released while the training loop keeps reading the result.
func (x *Executor) stashResult(backward bool, layer, expert int, m *wire.Matrix) *tensor.Tensor {
	x.resMu.Lock()
	defer x.resMu.Unlock()
	if x.resBufs == nil {
		x.resBufs = make(map[resultKey]*tensor.Tensor)
	}
	k := resultKey{backward, layer, expert}
	t := x.resBufs[k]
	t = tensor.Ensure(&t, m.Rows, m.Cols)
	copy(t.Data, m.Data)
	x.resBufs[k] = t
	return t
}

var _ moe.Executor = (*Executor)(nil)

// NewExecutor builds a master-side executor over per-worker connections
// and an expert-to-worker assignment.
func NewExecutor(conns []transport.Conn, assign *placement.Assignment) *Executor {
	x := &Executor{BytesPerValue: 2, BaseDir: checkpoint.DefaultBaseDir()}
	x.conns = make([]atomic.Pointer[connBox], len(conns))
	for i, c := range conns {
		x.conns[i].Store(&connBox{c})
	}
	x.assign.Store(assign)
	x.connSem = make([]chan struct{}, len(conns))
	for i := range x.connSem {
		x.connSem[i] = make(chan struct{}, 1)
	}
	x.dead = make([]atomic.Bool, len(conns))
	return x
}

// NumWorkers returns the size of the worker pool, dead workers included.
func (x *Executor) NumWorkers() int { return len(x.conns) }

// Alive reports whether worker n has not been marked dead.
func (x *Executor) Alive(n int) bool { return !x.dead[n].Load() }

// MarkDead declares worker n failed: its connection is closed (waking any
// goroutine blocked on it) and every later round against it fails fast
// with ErrWorkerDead. Idempotent.
func (x *Executor) MarkDead(n int) {
	if x.dead[n].Swap(true) {
		return
	}
	_ = x.conn(n).Close()
}

// rejoin re-admits a dead worker over a fresh connection: the slot is
// swapped and the dead flag cleared, so subsequent rounds target the new
// connection. The caller is responsible for re-provisioning the worker
// (a restarted Expert Manager is empty — the replace controller migrates
// experts back under its cost gate, or a run-level resume re-assigns
// them outright). The swap holds the round semaphore, so a round already
// draining on the old connection finishes before the slot changes.
func (x *Executor) rejoin(n int, conn transport.Conn) error {
	if n < 0 || n >= len(x.conns) {
		return fmt.Errorf("broker: rejoin of unknown worker %d", n)
	}
	if !x.dead[n].Load() {
		return fmt.Errorf("broker: worker %d rejoin: not marked dead", n)
	}
	x.connSem[n] <- struct{}{}
	x.conns[n].Store(&connBox{conn})
	x.dead[n].Store(false)
	<-x.connSem[n]
	return nil
}

// DeadMask returns the per-worker liveness flags in placement.Repair's
// convention (true = dead).
func (x *Executor) DeadMask() []bool {
	mask := make([]bool, len(x.conns))
	for n := range mask {
		mask[n] = x.dead[n].Load()
	}
	return mask
}

// SetAssignment swaps the placement (e.g. after re-solving); the caller
// must re-distribute experts first. The swap is atomic, so concurrent
// Assignment() readers see either the old or the new placement, never a
// mixture.
func (x *Executor) SetAssignment(a *placement.Assignment) { x.assign.Store(a) }

// Assignment returns the active placement. The returned value is
// immutable once published — runtime updates swap in a fresh clone — so
// callers may read it without synchronization, but must not mutate it.
func (x *Executor) Assignment() *placement.Assignment { return x.assign.Load() }

// workerOf returns the worker hosting expert e of the given layer.
func (x *Executor) workerOf(layer, e int) int { return x.assign.Load().Worker[layer][e] }

// acquire takes worker n's round semaphore, failing fast if the worker is
// dead. The double check after the acquire closes the race where the
// supervisor marks a worker dead while a round is queued on the
// semaphore.
func (x *Executor) acquire(n int) error {
	if x.dead[n].Load() {
		return fmt.Errorf("broker: worker %d: %w", n, ErrWorkerDead)
	}
	x.connSem[n] <- struct{}{}
	if x.dead[n].Load() {
		<-x.connSem[n]
		return fmt.Errorf("broker: worker %d: %w", n, ErrWorkerDead)
	}
	return nil
}

func (x *Executor) release(n int) { <-x.connSem[n] }

// round is the one way the master talks to its workers. msgs[n] is worker
// n's row of requests; an empty row skips worker n. Every non-empty row
// runs through sendRecv, side by side (the caller drives the last row
// itself), and every reply is checked against want there: a MsgError or a
// reply of any other type fails the worker's share. A reply of type want
// is handed to onReply with its worker n and row index i, and is then the
// callback's to keep or release; round releases every other pooled reply
// — stale, duplicate, unknown, wrong-typed, or one a nil onReply does not
// want. onSent, when non-nil, runs after each of worker n's requests is
// on the wire. The error returned is that of the failing worker with the
// lowest index, whichever failed first.
func (x *Executor) round(msgs [][]*wire.Message, want wire.MsgType, onSent func(n int), onReply func(n, i int, reply *wire.Message) error) error {
	errs := make([]error, len(msgs))
	var wg sync.WaitGroup
	last := -1
	for n, row := range msgs {
		if len(row) == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				errs[n] = x.sendRecv(n, msgs[n], want, onSent, onReply)
			}(last)
		}
		last = n
	}
	if last >= 0 {
		errs[last] = x.sendRecv(last, msgs[last], want, onSent, onReply)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// one is a round with a single non-empty row: msg to worker n.
func (x *Executor) one(n int, msg *wire.Message, want wire.MsgType, onReply func(n, i int, reply *wire.Message) error) error {
	msgs := make([][]*wire.Message, len(x.conns))
	msgs[n] = []*wire.Message{msg}
	return x.round(msgs, want, nil, onReply)
}

// sendRecv is worker n's share of a round: its requests go out one at a
// time on the calling goroutine, each stamped with a fresh Seq and
// followed by the wait for its reply, so at most one request is ever
// outstanding on the connection. Rounds on the same connection are
// serialized by a channel semaphore so the supervisor's heartbeats and
// the trainer's exchanges never interleave frames.
//
// Failure semantics: the row stops at its first failure — a Send or Recv
// error, a worker-side MsgError, a reply of a type other than want, or an
// onReply error. Nothing is outstanding then, so there is nothing to
// drain; after anything but a transport failure the connection serves the
// next round as it is.
//
// onSent and onReply are round's; both run on the calling goroutine.
func (x *Executor) sendRecv(n int, msgs []*wire.Message, want wire.MsgType, onSent func(n int), onReply func(n, i int, reply *wire.Message) error) error {
	if err := x.acquire(n); err != nil {
		return err
	}
	defer x.release(n)
	conn := x.conn(n)
	if x.RequestTimeout > 0 {
		// Clear the deadline on the way out so a later round without
		// timeouts does not inherit a stale one.
		defer conn.SetRecvDeadline(time.Time{})
	}
	var rowT0 int64
	if x.Obs != nil {
		rowT0 = x.Obs.Trace.Clock()
	}
	// Every Seq an earlier round on this connection stamped is below first.
	first := x.seq.Load() + 1
	for i, msg := range msgs {
		if x.Obs != nil {
			// A request waits only behind its row's earlier requests.
			x.Obs.OnEnqueue(n, int(msg.Layer), int(msg.Expert), time.Duration(x.Obs.Trace.Clock()-rowT0))
		}
		seq := x.seq.Add(1)
		msg.Seq = seq
		if err := conn.Send(msg); err != nil {
			return fmt.Errorf("broker: send to worker %d: %w", n, err)
		}
		if x.Obs != nil {
			x.Obs.OnSend(n, int(msg.Layer), int(msg.Expert), seq, wire.EncodedSize(msg))
		}
		if onSent != nil {
			onSent(n)
		}
		reply, err := x.awaitReply(conn, n, first, seq)
		if err != nil {
			return err
		}
		if x.Obs != nil {
			x.Obs.OnReply(n, seq, wire.EncodedSize(reply))
		}
		switch {
		case reply.Type == wire.MsgError:
			err = fmt.Errorf("broker: worker %d: %s", n, reply.Text)
		case reply.Type != want && !(reply.Type == wire.MsgBaseMiss && msg.Type == wire.MsgAssign):
			err = fmt.Errorf("broker: worker %d replied %v to %v", n, reply.Type, msg.Type)
		case onReply != nil:
			// Replies handed to onReply are the callback's to keep or
			// release; sendRecv recycles every other one.
			err = onReply(n, i, reply)
			reply = nil
		}
		wire.Release(reply)
		if err != nil {
			return err
		}
	}
	return nil
}

// awaitReply receives from worker n until a reply carries seq, the one
// request outstanding on conn. A reply below first, where its row's Seqs
// start, is a straggler from an abandoned earlier round; one in [first,
// seq) is a duplicate delivery of a reply already consumed. Both are
// counted, released and waited past, so a transport that duplicates
// frames cannot poison correlation. A reply above seq answers nothing the
// master asked and fails the share.
//
// When RequestTimeout is set, each wait carries a deadline. An expired
// wait is retried in place — the request is never re-sent (a re-sent
// backward frame would double-accumulate gradients); the deadline is
// extended with exponential backoff (timeout, 2·timeout, 4·timeout, …) up
// to maxRecvRetries extra waits, after which the share fails with an error
// wrapping transport.ErrTimeout.
func (x *Executor) awaitReply(conn transport.Conn, n int, first, seq uint64) (*wire.Message, error) {
	timeout := x.RequestTimeout
	for attempt := 0; ; {
		if timeout > 0 {
			// Only a closed conn refuses a deadline, and Recv reports that.
			_ = conn.SetRecvDeadline(time.Now().Add(timeout << attempt))
		}
		reply, err := conn.Recv()
		if err != nil {
			if timeout > 0 && errors.Is(err, transport.ErrTimeout) {
				x.Counters.Add(obs.RecvTimeouts, 1)
				if attempt < maxRecvRetries {
					attempt++
					x.Counters.Add(obs.RecvRetries, 1)
					continue
				}
			}
			return nil, fmt.Errorf("broker: recv from worker %d: %w", n, err)
		}
		if reply.Seq == seq {
			return reply, nil
		}
		switch {
		case reply.Seq > seq:
			err = fmt.Errorf("broker: worker %d sent %v reply with unknown seq %d", n, reply.Type, reply.Seq)
		case reply.Seq < first:
			x.Counters.Add(obs.StaleReplies, 1)
		default:
			x.Counters.Add(obs.DuplicateReplies, 1)
		}
		wire.Release(reply)
		if err != nil {
			return nil, err
		}
	}
}

// SetBase registers the frozen parameters of every expert in grid as the
// base that delta entries are installed over. They are views, so the grid
// must stay as it is — which it does: after Distribute nothing on the
// master reads or trains it. Distribute registers the grid it ships; a
// master that skips Distribute (System.Resume) registers the grid its
// prelude rebuilt. An expert with nothing frozen registers nothing.
func (x *Executor) SetBase(grid [][]*moe.Expert) {
	x.base = make(map[moe.ExpertID]expertBase)
	for l, row := range grid {
		for e, ex := range row {
			if ts := frozenOf(ex); len(ts) > 0 {
				x.base[moe.ExpertID{Layer: l, Expert: e}] = expertBase{tensors: ts, sum: baseSum(ts)}
			}
		}
	}
}

// baseFor returns the base registered for id if a delta entry en may be
// installed over it: a delta over any other base than the one its
// baseSum names would resume a run that silently diverges.
func (x *Executor) baseFor(id moe.ExpertID, en *expertEntry) (expertBase, error) {
	base, ok := x.base[id]
	if !ok {
		return base, fmt.Errorf("broker: expert %v: delta entry but no base registered (Distribute or SetBase the grid first)", id)
	}
	if base.sum != en.baseSum {
		return base, fmt.Errorf("broker: expert %v: entry was trained over frozen weights with digest %08x, this grid's have %08x — refusing to put it on a different checkpoint",
			id, en.baseSum, base.sum)
	}
	return base, nil
}

// install puts every expert of msgs on its worker: msgs[n] is worker n's
// row of MsgAssign messages, each carrying a delta or a full entry — the
// one send path of Distribute, migrate and RestoreExperts. A full entry
// (an expert with nothing frozen, a generation written before deltas)
// travels as it is. A delta travels with its base's key in Text: the
// base's SHA-256, taken once per expert as the base is put into the
// master's BaseStore, whether or not the store takes it. A worker that
// holds no copy of the base — neither the expert itself nor a store file
// that verifies — keeps the delta and answers MsgBaseMiss, and only those
// experts' bases follow (MsgBase), in a second round: a miss costs the
// base's bytes and one small round trip, not the delta twice. Every
// delta is checked against its base before anything is sent.
func (x *Executor) install(msgs [][]*wire.Message) error {
	type delta struct {
		m    *wire.Message
		id   moe.ExpertID
		base expertBase
	}
	var deltas []delta
	for _, row := range msgs {
		for _, m := range row {
			id := moe.ExpertID{Layer: int(m.Layer), Expert: int(m.Expert)}
			// An entry that does not parse travels as it is, and the
			// worker refuses it.
			en, err := parseEntry(m.Tensors)
			if err != nil || !en.delta {
				x.Counters.Add(obs.BaseFull, 1)
				continue
			}
			base, err := x.baseFor(id, en)
			if err != nil {
				return err
			}
			deltas = append(deltas, delta{m, id, base})
		}
	}
	// The SHA-256 digests of the bases not keyed yet are most of a
	// Distribute's own work: take them side by side.
	tensor.Fanout(len(deltas), func(i int) { deltas[i].base.key = x.storeBase(deltas[i].base) })
	for _, d := range deltas {
		x.base[d.id] = d.base
		d.m.Text = d.base.key
	}
	x.Counters.Add(obs.BaseKeyed, int64(len(deltas)))
	missed := make([][]*wire.Message, len(msgs))
	err := x.round(msgs, wire.MsgAck, nil, func(n, i int, reply *wire.Message) error {
		defer wire.Release(reply)
		if reply.Type == wire.MsgBaseMiss {
			if m := msgs[n][i]; m.Text != "" {
				missed[n] = append(missed[n], m)
			} else {
				return fmt.Errorf("broker: worker %d reported a base miss for the full entry of L%d/E%d", n, m.Layer, m.Expert)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, row := range missed {
		for i, m := range row {
			id := moe.ExpertID{Layer: int(m.Layer), Expert: int(m.Expert)}
			row[i] = &wire.Message{Type: wire.MsgBase, Layer: m.Layer, Expert: m.Expert, Tensors: x.base[id].tensors}
			x.Counters.Add(obs.BaseMisses, 1)
		}
	}
	return x.round(missed, wire.MsgAck, nil, nil) // no rows when nothing missed
}

// storeBase returns base's BaseStore key, taking it and putting the base
// into the master's store the first time. A failed put costs only that:
// the key still names the base to the workers' stores and hosted experts.
func (x *Executor) storeBase(base expertBase) string {
	if base.key != "" {
		return base.key
	}
	key, _ := checkpoint.BaseStore{Dir: x.BaseDir}.Put(baseBytes(base.tensors))
	return key
}

// Distribute ships every expert in the grid to its assigned worker, and
// registers the grid's frozen parameters as the base (SetBase). Each
// expert travels as a delta entry through install: the base's bytes cross
// a link only to a worker whose host store lacks them. It is the runtime
// realization of a placement: called once before fine-tuning starts (and
// again if the placement changes). Transfers to distinct workers run in
// parallel and transfers to the same worker one after another. An expert
// the assignment places outside the pool fails it before anything is
// sent.
func (x *Executor) Distribute(grid [][]*moe.Expert, spec ExpertSpec) error {
	x.SetBase(grid)
	assign := x.assign.Load()
	msgs := make([][]*wire.Message, len(x.conns))
	for l, row := range grid {
		for e, ex := range row {
			n, err := x.placed(assign, l, e)
			if err != nil {
				return err
			}
			msgs[n] = append(msgs[n], encodeEntry(wire.MsgAssign, ex, spec, nil, x.base[ex.ID].sum))
		}
	}
	return x.install(msgs)
}

// placed returns the worker assign names for expert (layer, e), or an
// error naming the expert when the assignment has no such cell or names a
// worker outside the pool.
func (x *Executor) placed(assign *placement.Assignment, layer, e int) (int, error) {
	if layer < 0 || layer >= len(assign.Worker) || e < 0 || e >= len(assign.Worker[layer]) {
		return 0, fmt.Errorf("broker: expert L%d/E%d is outside the assignment", layer, e)
	}
	n := assign.Worker[layer][e]
	if n < 0 || n >= len(x.conns) {
		return 0, fmt.Errorf("broker: expert L%d/E%d assigned to invalid worker %d (pool of %d)", layer, e, n, len(x.conns))
	}
	return n, nil
}

// ForwardExperts implements moe.Executor: dispatch token batches to the
// owning workers (the token dispatcher of Fig. 4), gather outputs.
func (x *Executor) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.exchange(layer, batches, false)
}

// BackwardExperts implements moe.Executor: dispatch output gradients,
// gather input gradients (the gradient dispatcher/receiver of Fig. 4).
func (x *Executor) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.exchange(layer, grads, true)
}

// exchange performs one one-to-all scatter/gather round for a layer:
// every batch a worker owes travels in ONE multi-tensor frame per
// direction (Tensors[0] = expert-id row, Tensors[1..K] = the batches in
// expert order) and comes back in one reply mirroring that layout, and
// each worker fans its frame's experts out (tensor.Fanout). Traffic is
// accounted per frame, bytes as the sum over its experts; any expert
// failure on a worker fails the whole frame.
func (x *Executor) exchange(layer int, batches map[int]*tensor.Tensor, backward bool) (map[int]*tensor.Tensor, error) {
	sp := x.Obs.Begin(obs.PhaseExchange)
	defer sp.End()
	roundStart := x.Obs.RoundStart()
	reqType, respType := wire.MsgForwardMulti, wire.MsgForwardMultiResult
	if backward {
		reqType, respType = wire.MsgBackwardMulti, wire.MsgBackwardMultiResult
	}
	// Group expert batches per worker in deterministic expert order.
	experts := make([][]int, len(x.conns))
	maxE := 0
	for e := range batches {
		if e > maxE {
			maxE = e
		}
	}
	for e := 0; e <= maxE; e++ {
		if _, ok := batches[e]; ok {
			n := x.workerOf(layer, e)
			experts[n] = append(experts[n], e)
		}
	}
	msgs := make([][]*wire.Message, len(x.conns))
	for n, es := range experts {
		if len(es) == 0 {
			continue
		}
		ids := make([]float64, len(es))
		tensors := make([]wire.Matrix, 1+len(es))
		tensors[0] = wire.Matrix{Rows: 1, Cols: len(es), Data: ids}
		for i, e := range es {
			ids[i] = float64(e)
			tensors[1+i] = matrixOf(batches[e])
			tensors[1+i].Enc = x.WireEncoding
		}
		msgs[n] = []*wire.Message{{Type: reqType, Layer: int32(layer), Expert: wire.ExpertCoalesced, Tensors: tensors}}
	}
	var onSent func(n int)
	if x.Counters != nil {
		onSent = func(n int) {
			var tokens, bytes int64
			for _, e := range experts[n] {
				b := batches[e]
				tokens += int64(b.Rows())
				bytes += x.logicalBytes(b.Rows(), b.Len())
			}
			x.Counters.AddWorker(obs.TrafficTokensTo, n, tokens)
			x.Counters.AddWorker(obs.TrafficBytesTo, n, bytes)
			x.Counters.AddWorker(obs.TrafficFrames, n, 1)
		}
	}

	var mu sync.Mutex
	results := make(map[int]*tensor.Tensor, len(batches))
	err := x.round(msgs, respType, onSent, func(n, _ int, reply *wire.Message) error {
		// A worker's share ends with its reply; one that fails before
		// replying records no straggler duration.
		defer x.Obs.WorkerRoundDone(n, roundStart)
		es := experts[n]
		if len(reply.Tensors) != 1+len(es) {
			return fmt.Errorf("broker: worker %d %v reply carries %d tensors, want %d",
				n, reply.Type, len(reply.Tensors), 1+len(es))
		}
		idRow := reply.Tensors[0]
		if idRow.Rows != 1 || idRow.Cols != len(es) {
			return fmt.Errorf("broker: worker %d %v reply id row is %dx%d, want 1x%d",
				n, reply.Type, idRow.Rows, idRow.Cols, len(es))
		}
		seq := reply.Seq
		var decT0 int64
		if x.Obs != nil {
			decT0 = x.Obs.Trace.Clock()
		}
		var tokens, bytes int64
		for i, e := range es {
			if int(idRow.Data[i]) != e {
				return fmt.Errorf("broker: worker %d %v reply echoes expert %d at slot %d, want %d",
					n, reply.Type, int(idRow.Data[i]), i, e)
			}
			// Copy the result into the executor's persistent buffer; the
			// frame is recycled below.
			out := x.stashResult(backward, layer, e, &reply.Tensors[1+i])
			mu.Lock()
			results[e] = out
			mu.Unlock()
			if x.Counters != nil {
				tokens += int64(out.Rows())
				bytes += x.logicalBytes(out.Rows(), out.Len())
			}
		}
		x.Counters.AddWorker(obs.TrafficTokensFrom, n, tokens)
		x.Counters.AddWorker(obs.TrafficBytesFrom, n, bytes)
		x.Counters.AddWorker(obs.TrafficFrames, n, 1)
		wire.Release(reply)
		if x.Obs != nil {
			x.Obs.OnDecode(n, layer, int(wire.ExpertCoalesced), seq,
				time.Duration(x.Obs.Trace.Clock()-decT0))
		}
		return nil
	})
	x.Obs.RoundEnd()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// logicalBytes is the logical traffic accounting of one transfer: values
// × BytesPerValue, plus the per-row scale overhead the int8 encoding puts
// on the wire (scales count toward frame bytes, so the logical meter and
// the physical transport meter agree on what a transfer costs).
func (x *Executor) logicalBytes(rows, vals int) int64 {
	return int64(float64(vals)*x.BytesPerValue) + int64(rows*x.WireEncoding.ScaleBytesPerRow())
}

// ZeroGrads broadcasts a gradient-clear to all live workers and awaits
// acks.
func (x *Executor) ZeroGrads() error { return x.broadcast(wire.MsgZeroGrad) }

// Step broadcasts an optimizer step to all live workers and awaits acks.
// A broadcast that fails may have stepped some workers and not others;
// the retry makes that harmless by restoring every expert from the last
// boundary's snapshot before the step is re-driven.
func (x *Executor) Step() error { return x.broadcast(wire.MsgStep) }

// Shutdown asks every live worker to terminate and awaits acks.
func (x *Executor) Shutdown() error { return x.broadcast(wire.MsgShutdown) }

// broadcast sends a control message to every live worker in parallel and
// awaits acks.
func (x *Executor) broadcast(t wire.MsgType) error {
	return x.round(x.live(t), wire.MsgAck, nil, nil)
}

// live builds a round's rows for a control message to every live worker.
// Dead workers get no row: they hold no experts after a failover, so
// control traffic to them would only re-surface the failure the
// supervisor already handled.
func (x *Executor) live(t wire.MsgType) [][]*wire.Message {
	msgs := make([][]*wire.Message, len(x.conns))
	for n := range msgs {
		if x.Alive(n) {
			msgs[n] = []*wire.Message{{Type: t}}
		}
	}
	return msgs
}

// Ping probes worker n with a heartbeat and reports whether it answered.
// The probe is a round, so it honours RequestTimeout and serializes with
// in-flight rounds on the connection.
//
// When instrumented, the ping doubles as a clock-sync exchange: the
// request carries the master's send timestamp t0, an instrumented
// worker echoes it with its receive/reply timestamps (t1, t2), and the
// reply's arrival t3 completes the NTP-style 4-timestamp sample fed to
// Obs.Clocks. Uninstrumented peers on either side degrade to the plain
// ping/pong.
func (x *Executor) Ping(n int) error {
	msg := &wire.Message{Type: wire.MsgPing}
	if x.Obs == nil {
		return x.one(n, msg, wire.MsgPong, nil)
	}
	msg.Tensors = []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{float64(x.Obs.Trace.Clock())}}}
	return x.one(n, msg, wire.MsgPong, func(n, _ int, reply *wire.Message) error {
		defer wire.Release(reply)
		if len(reply.Tensors) == 1 && reply.Tensors[0].Rows == 1 && reply.Tensors[0].Cols == 3 {
			t3 := x.Obs.Trace.Clock()
			echo := reply.Tensors[0].Data
			t0, t1, t2 := int64(echo[0]), int64(echo[1]), int64(echo[2])
			if t1 != 0 || t2 != 0 { // zeros mean the worker has no tracer
				x.Obs.Clocks.Sample(n, t0, t1, t2, t3)
			}
		}
		return nil
	})
}

// FetchWorkerTrace pulls worker n's trace-ring events past `cursor`
// (its own tracer's total-order index; 0 fetches everything retained)
// and returns the events on the worker's clock, the cursor to resume
// from, and the ring's lifetime overwrite count. It is a round at step
// boundaries, off the training path, so it honours RequestTimeout and
// serializes with exchanges on the connection.
func (x *Executor) FetchWorkerTrace(n int, cursor uint64) ([]obs.Event, uint64, uint64, error) {
	req := &wire.Message{Type: wire.MsgTraceFetch,
		Tensors: []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{float64(cursor)}}}}
	var evs []obs.Event
	next, dropped := cursor, uint64(0)
	err := x.one(n, req, wire.MsgTraceFetchResult, func(n, _ int, reply *wire.Message) error {
		defer wire.Release(reply) // EventsFromRows copies
		if len(reply.Tensors) < 1 || reply.Tensors[0].Rows != 1 || reply.Tensors[0].Cols != 2 {
			return fmt.Errorf("broker: worker %d trace-fetch reply lacks the cursor row", n)
		}
		next = uint64(reply.Tensors[0].Data[0])
		dropped = uint64(reply.Tensors[0].Data[1])
		if len(reply.Tensors) == 2 {
			evs = obs.EventsFromRows(reply.Tensors[1].Rows, reply.Tensors[1].Cols, reply.Tensors[1].Data)
		}
		return nil
	})
	return evs, next, dropped, err
}

// snapshotExpert pulls a non-destructive copy of expert (layer, e)'s
// entry from worker n.
func (x *Executor) snapshotExpert(n, layer, e int) (*wire.Message, error) {
	var payload *wire.Message
	err := x.one(n, &wire.Message{Type: wire.MsgSnapshot, Layer: int32(layer), Expert: int32(e)}, wire.MsgSnapshotResult,
		func(_, _ int, reply *wire.Message) error {
			payload = reply
			return nil
		})
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// SnapshotExperts pulls a non-destructive copy of every hosted expert's
// entry — the trainable weights and the worker-local AdamW moment
// estimates; the frozen weights stay where they are (delta entries) —
// and packages it as a step-stamped checkpoint snapshot: the state the
// supervisor restores from when a worker dies, and the expert slice of a
// run-level checkpoint. Workers are queried in parallel, each worker's
// experts one after another.
func (x *Executor) SnapshotExperts(step int) (*checkpoint.ExpertSnapshot, error) {
	assign := x.assign.Load()
	msgs := make([][]*wire.Message, len(x.conns))
	got := make([][][]wire.Matrix, len(assign.Worker))
	for l, row := range assign.Worker {
		got[l] = make([][]wire.Matrix, len(row))
		for e, n := range row {
			msgs[n] = append(msgs[n], &wire.Message{Type: wire.MsgSnapshot, Layer: int32(l), Expert: int32(e)})
		}
	}
	// Each (l, e) is one request of one worker, so the writes below never
	// share an element.
	err := x.round(msgs, wire.MsgSnapshotResult, nil, func(n, i int, reply *wire.Message) error {
		req := msgs[n][i]
		got[req.Layer][req.Expert] = reply.Tensors
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := &checkpoint.ExpertSnapshot{Step: step}
	for l, row := range got {
		for e, tensors := range row {
			if tensors == nil {
				return nil, fmt.Errorf("broker: snapshot missing expert L%d/E%d", l, e)
			}
			snap.Entries = append(snap.Entries, checkpoint.ExpertEntry{Layer: l, Expert: e, Tensors: stateTensorsOf(tensors)})
		}
	}
	x.Counters.Add(obs.Snapshots, 1)
	return snap, nil
}

// stateTensorsOf views an entry's tensor list as checkpoint tensors.
func stateTensorsOf(ts []wire.Matrix) []checkpoint.StateTensor {
	out := make([]checkpoint.StateTensor, len(ts))
	for i, t := range ts {
		out[i] = checkpoint.StateTensor{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
	}
	return out
}

// RestoreExperts replays snapshot entries onto the workers the given
// assignment names for them — the re-distribution half of a failover, a
// retry and a resume. The entries are grouped per worker and installed
// in parallel as ordinary MsgAssign messages (install), so the receiving
// worker rebuilds the expert exactly as initial Distribute would; a
// retry's restore onto the experts' own hosts moves deltas only. An
// entry the assignment places outside the pool, or a delta whose base
// this grid does not have, fails the restore before anything is sent.
func (x *Executor) RestoreExperts(entries []checkpoint.ExpertEntry, assign *placement.Assignment) error {
	msgs := make([][]*wire.Message, len(x.conns))
	for _, entry := range entries {
		n, err := x.placed(assign, entry.Layer, entry.Expert)
		if err != nil {
			return err
		}
		ts := make([]wire.Matrix, len(entry.Tensors))
		for i, t := range entry.Tensors {
			ts[i] = wire.Matrix{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
		}
		msgs[n] = append(msgs[n], &wire.Message{
			Type: wire.MsgAssign, Layer: int32(entry.Layer), Expert: int32(entry.Expert), Tensors: ts,
		})
	}
	return x.install(msgs)
}

// LocalDeployment wires up n in-process workers over channel pipes — the
// single-machine deployment used by tests, examples and the functional
// half of the benchmark harness.
type LocalDeployment struct {
	Workers []*Worker
	Conns   []transport.Conn

	wg       sync.WaitGroup
	serveErr []error
}

// StartLocalWorkers launches n Expert Managers on goroutines and returns
// the deployment handle with the master-side connection endpoints.
func StartLocalWorkers(n int, cfg WorkerConfig) *LocalDeployment {
	d := &LocalDeployment{serveErr: make([]error, n)}
	for i := 0; i < n; i++ {
		masterEnd, workerEnd := transport.Pipe()
		w := NewWorker(i, cfg)
		d.Workers = append(d.Workers, w)
		d.Conns = append(d.Conns, masterEnd)
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			d.serveErr[i] = w.Serve(workerEnd)
		}(i)
	}
	return d
}

// Wait blocks until all workers exit (after Executor.Shutdown) and
// returns the first serve error, if any.
func (d *LocalDeployment) Wait() error {
	d.wg.Wait()
	for _, err := range d.serveErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// WaitAll blocks until all workers exit and returns each worker's serve
// error (nil for a clean shutdown). Chaos tests use it to assert that
// only the deliberately killed workers errored.
func (d *LocalDeployment) WaitAll() []error {
	d.wg.Wait()
	return append([]error(nil), d.serveErr...)
}

// Close severs all connections (for abnormal teardown in tests).
func (d *LocalDeployment) Close() {
	for _, c := range d.Conns {
		_ = c.Close()
	}
}
