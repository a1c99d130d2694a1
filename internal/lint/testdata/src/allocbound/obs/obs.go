// Package obs exercises allocbound's observability hot-path rule: inside
// the per-request hook functions (Record, Observe, OnSend, …) any
// allocation expression — make, new, append, &T{…}, a closure, or an fmt
// call — is a finding. Value composite literals, atomic updates and
// preallocated-state writes are the approved shapes.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Event mirrors the real fixed-size trace record.
type Event struct {
	At   int64
	Seq  uint64
	Kind uint8
}

// Tracer mirrors the real preallocated ring.
type Tracer struct {
	buf    []Event
	mask   uint64
	cursor atomic.Uint64
	sink   []Event
	logf   func(string)
}

// Record is the canonical clean hook: claim a slot, write a value — no
// allocation syntax anywhere.
func (t *Tracer) Record(ev Event) {
	idx := t.cursor.Add(1) - 1
	t.buf[idx&t.mask] = ev
}

// Observe shows every banned shape in one hook.
func (t *Tracer) Observe(v float64) {
	tmp := make([]Event, 1)          // want "make allocation in obs per-request hook Observe"
	_ = new(Event)                   // want "new allocation in obs per-request hook Observe"
	t.sink = append(t.sink, Event{}) // want "append allocation in obs per-request hook Observe"
	_ = &Event{At: int64(v)}         // want "&composite-literal allocation in obs per-request hook Observe"
	_ = tmp
}

// OnSend is flagged on closures and fmt calls: both allocate per call.
func (t *Tracer) OnSend(n int, seq uint64, bytes int) {
	t.logf = func(string) {} // want "function literal .closure allocation. in obs per-request hook OnSend"
	fmt.Sprintf("%d", seq)   // want "fmt call .interface boxing allocates. in obs per-request hook OnSend"
}

// OnReply is the approved hook shape: a value literal written into a
// preallocated slot allocates nothing and stays clean.
func (t *Tracer) OnReply(n int, seq uint64, bytes int) {
	t.buf[seq&t.mask] = Event{At: 1, Seq: seq, Kind: 4}
}

// Snapshot is NOT a hot hook: cold export paths may allocate freely.
func (t *Tracer) Snapshot() []Event {
	out := make([]Event, len(t.buf))
	copy(out, t.buf)
	return out
}

// OnDecode demonstrates the escape hatch for a justified allocation.
func (t *Tracer) OnDecode(n int, seq uint64) {
	//lint:ignore allocbound fixture: documented one-off growth on first decode
	t.sink = append(t.sink, Event{Seq: seq})
}

// OnWorkerRecv mirrors the worker-side arrival hook: a value literal into
// the ring is the approved shape.
func (t *Tracer) OnWorkerRecv(n int, seq uint64, at int64, bytes int) {
	t.buf[seq&t.mask] = Event{At: at, Seq: seq, Kind: 5}
}

// OnWorkerQueue is a hot worker-side hook too: allocations are findings.
func (t *Tracer) OnWorkerQueue(n int, seq uint64, wait int64) {
	t.sink = append(t.sink, Event{Seq: seq}) // want "append allocation in obs per-request hook OnWorkerQueue"
}

// OnWorkerReply: fmt in the reply hook is a finding like any other hook.
func (t *Tracer) OnWorkerReply(n int, seq uint64, bytes int) {
	fmt.Sprintf("%d", bytes) // want "fmt call .interface boxing allocates. in obs per-request hook OnWorkerReply"
}

// Counters mirrors the real counter table: preallocated atomic slots.
type Counters struct {
	vals [][]atomic.Int64
	log  []int64
}

// AddWorker is the per-frame traffic hook: an atomic add into a
// preallocated slot is the approved shape.
func (c *Counters) AddWorker(k, n int, v int64) {
	c.vals[k][n].Add(v)
}

// Add is a hot hook too (recv-timeout, stale and duplicate replies):
// growing a log per event is a finding.
func (c *Counters) Add(k int, v int64) {
	c.log = append(c.log, v) // want "append allocation in obs per-request hook Add"
	c.AddWorker(k, 0, v)
}
