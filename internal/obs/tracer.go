package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind discriminates trace events.
type EventKind uint8

// Trace event kinds: the expert-exchange lifecycle plus step-phase spans.
const (
	// EvEnqueue marks a request of a worker's row coming up for sending;
	// Dur is the time it waited behind the row's earlier requests.
	EvEnqueue EventKind = iota + 1
	// EvSend marks a request on the wire, stamped once Send returns.
	EvSend
	// EvCompute marks one expert forward/backward on a worker; Dur is
	// its compute time.
	EvCompute
	// EvReply marks a correlated reply on the master; Dur is the
	// send→reply latency.
	EvReply
	// EvDecode marks the reply payload decoded into a tensor; Dur is the
	// decode time.
	EvDecode
	// EvSpan marks a completed step-phase span; Phase names it and Dur
	// is its length.
	EvSpan
	// EvWkRecv marks a request frame arriving at a worker; At is the
	// arrival timestamp on the worker clock and Bytes the decoded frame
	// size. Worker-side kinds carry the request Seq so the master can
	// correlate them with its own EvSend/EvReply records.
	EvWkRecv
	// EvWkQueue marks a worker request's compute starting; At is the
	// start time and Dur the queue wait since frame arrival.
	EvWkQueue
	// EvWkReply marks a worker reply handed to the transport; Dur is the
	// encode+send time (including the reply-serialization wait) and
	// Bytes the encoded reply size.
	EvWkReply
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvEnqueue:
		return "enqueue"
	case EvSend:
		return "send"
	case EvCompute:
		return "compute"
	case EvReply:
		return "reply"
	case EvDecode:
		return "decode"
	case EvSpan:
		return "span"
	case EvWkRecv:
		return "wk_recv"
	case EvWkQueue:
		return "wk_queue"
	case EvWkReply:
		return "wk_reply"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size trace record. Fields not meaningful for a kind
// are zero. At is nanoseconds since the tracer's epoch (monotonic).
type Event struct {
	At     int64
	Dur    int64 // nanoseconds, for kinds that measure an interval
	Seq    uint64
	Bytes  int64
	Step   int32
	Layer  int32
	Expert int32
	Worker int32
	Kind   EventKind
	Phase  Phase // meaningful for EvSpan only
}

// traceStripes is the number of slot-guard mutexes. Power of two so the
// stripe of a slot is a mask away.
const traceStripes = 64

// Tracer is a fixed-capacity ring buffer of events. Writers claim a slot
// with one atomic add on the cursor and write the record under that
// slot's stripe lock (uncontended in steady state), so Record is
// allocation-free and safe for concurrent use; once the ring wraps, the
// oldest events are overwritten. Snapshot locks all stripes and copies
// the retained window.
//
// All methods are nil-receiver-safe: a nil Tracer discards events.
type Tracer struct {
	epoch  time.Time
	buf    []Event
	mask   uint64
	cursor atomic.Uint64
	mu     [traceStripes]sync.Mutex
}

// newTracer builds a tracer retaining the last `capacity` events
// (rounded up to a power of two; minimum 64).
func newTracer(capacity int) *Tracer {
	size := uint64(64)
	for size < uint64(capacity) {
		size <<= 1
	}
	return &Tracer{epoch: time.Now(), buf: make([]Event, size), mask: size - 1}
}

// Clock returns nanoseconds since the tracer's epoch — the timebase of
// Event.At. A nil tracer reports 0.
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Record appends one event, overwriting the oldest once the ring is
// full. If ev.At is zero it is stamped with the tracer clock. Never
// allocates; safe for concurrent use.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if ev.At == 0 {
		ev.At = t.Clock()
	}
	idx := t.cursor.Add(1) - 1
	slot := idx & t.mask
	mu := &t.mu[slot&(traceStripes-1)]
	mu.Lock()
	t.buf[slot] = ev
	mu.Unlock()
}

// total returns how many events were ever recorded.
func (t *Tracer) total() uint64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Dropped returns how many events have been overwritten by ring
// wraparound.
func (t *Tracer) Dropped() uint64 {
	total := t.total()
	if t == nil || total <= uint64(len(t.buf)) {
		return 0
	}
	return total - uint64(len(t.buf))
}

// Snapshot copies the retained events, oldest first. Claimed-but-unwritten
// slots from racing writers surface as their previous content (or a zero
// Event before first wrap) — tracing is best-effort by design.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	for i := range t.mu {
		t.mu[i].Lock()
	}
	defer func() {
		for i := range t.mu {
			t.mu[i].Unlock()
		}
	}()
	total := t.cursor.Load()
	if total == 0 {
		return nil
	}
	if total <= uint64(len(t.buf)) {
		return append([]Event(nil), t.buf[:total]...)
	}
	head := total & t.mask // oldest retained slot
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}

// SnapshotFrom copies the retained events whose total-order index is at
// least `from` (0 fetches everything retained), oldest first, and
// returns the cursor to pass as `from` next time. Events that wrapped
// out of the ring before the call are lost — the caller can detect the
// gap by comparing `from` against Dropped. A nil tracer returns
// (nil, 0).
func (t *Tracer) SnapshotFrom(from uint64) ([]Event, uint64) {
	if t == nil {
		return nil, 0
	}
	for i := range t.mu {
		t.mu[i].Lock()
	}
	defer func() {
		for i := range t.mu {
			t.mu[i].Unlock()
		}
	}()
	total := t.cursor.Load()
	if from >= total {
		return nil, total
	}
	oldest := uint64(0)
	if total > uint64(len(t.buf)) {
		oldest = total - uint64(len(t.buf))
	}
	if from < oldest {
		from = oldest
	}
	out := make([]Event, 0, total-from)
	for idx := from; idx < total; idx++ {
		out = append(out, t.buf[idx&t.mask])
	}
	return out, total
}

// writeJSONL writes the retained events as one JSON object per line,
// oldest first. The encoding is hand-rolled (fixed field set, no
// reflection) so the export format is stable and dependency-free. The
// writer is buffered internally and flushed once, so an unbuffered
// destination (a socket, an os.File) pays one write per chunk, not one
// per event.
func (t *Tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Snapshot() {
		_, err := fmt.Fprintf(bw,
			`{"at_ns":%d,"kind":%q,"step":%d,"layer":%d,"expert":%d,"worker":%d,"seq":%d,"dur_ns":%d,"bytes":%d,"phase":%q}`+"\n",
			ev.At, ev.Kind.String(), ev.Step, ev.Layer, ev.Expert, ev.Worker, ev.Seq, ev.Dur, ev.Bytes, ev.Phase.String())
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
