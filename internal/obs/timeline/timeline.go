// Package timeline assembles the master's and the workers' trace rings
// into one cross-process request timeline: per-request span
// decomposition {send-wire, queue, compute, reply-wire, decode},
// per-step critical-path attribution, and Chrome trace-event JSON
// export (Perfetto / chrome://tracing loadable).
//
// Worker events arrive on each worker's own clock; Assemble rebases
// them onto the master timebase using the ClockSync offsets sampled on
// the heartbeat pings, keeping the queue and compute spans the worker's
// clock measured, and clamps the rebased interval into the
// master-observed [send, reply] window. The clamping makes the span
// decomposition telescoping: send-wire + queue + compute + reply-wire
// equals the master-observed round-trip EXACTLY, with any residual
// clock error only shifting the split between the two wire spans.
//
// Everything here is cold-path (step boundaries and exit reports);
// allocation is unconstrained.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
)

// ExpertSpan is one per-expert interval inside a request, on the master
// timebase (a coalesced frame carries one per packed expert).
type ExpertSpan struct {
	Expert int
	Start  int64 // ns, master timebase
	Dur    int64 // ns
}

// Request is one correlated master↔worker exchange with its span
// decomposition on the master timebase.
type Request struct {
	Step   int
	Layer  int
	Expert int // wire.ExpertCoalesced (-1) for a coalesced frame
	Worker int
	Seq    uint64

	// T0/T5 bound the master-observed round trip: request on the wire →
	// correlated reply arrived.
	T0, T5 int64
	// ReplyDur is the master-observed send→reply latency (EvReply.Dur);
	// equals T5−T0 whenever the master's latency table recovered it.
	ReplyDur int64

	// The telescoping spans: SendWire+Queue+Compute+ReplyWire == T5−T0.
	SendWire  int64 // master send → worker frame arrival
	Queue     int64 // frame arrival → first expert compute starts
	Compute   int64 // compute starts → reply serialization starts
	ReplyWire int64 // reply serialization → master reply arrival
	// Decode is the master-side post-arrival payload decode (outside the
	// round trip, reported separately).
	Decode int64

	// HasWorker reports whether worker-side events were correlated; a
	// master-only request carries the whole round trip in ReplyWire.
	HasWorker bool
	// ErrBound is the clock-rebasing error bound of the worker's events
	// (0 for a shared-clock deployment).
	ErrBound int64

	// Computes and Queues are the per-expert detail (one entry per
	// packed expert of a coalesced frame) for the Perfetto export.
	Computes []ExpertSpan
	Queues   []ExpertSpan
	// ReplyTx is the worker-side encode+send interval.
	ReplyTx ExpertSpan
}

// SpanSum returns SendWire+Queue+Compute+ReplyWire — by construction
// equal to T5−T0.
func (r *Request) SpanSum() int64 { return r.SendWire + r.Queue + r.Compute + r.ReplyWire }

// WorkerEvents is one worker ring's contribution to Assemble: events on
// the worker's own clock plus the ClockSync rebasing parameters. A
// shared-handle deployment (in-process workers recording into the
// master's ring) needs no WorkerEvents at all — its worker events ride
// in the master slice at offset 0.
type WorkerEvents struct {
	Events []obs.Event
	// OffsetNs is θ from ClockSync: worker_clock = master_clock + θ, so
	// rebasing subtracts it.
	OffsetNs int64
	// ErrBoundNs is ClockSync.ErrorBound for this worker.
	ErrBoundNs int64
}

// Timeline is the assembled cross-process view.
type Timeline struct {
	// Requests holds every correlated exchange, ordered by T0.
	Requests []Request
	// Phases holds the master's EvSpan step-phase events (forward,
	// backward, exchange, optimizer) for the export's phase track.
	Phases []obs.Event
}

// key correlates events of one request: the master stamps a unique Seq
// per (worker, request).
type key struct {
	worker int32
	seq    uint64
}

// acc accumulates one request's events before span computation.
type acc struct {
	step, layer, expert int32
	seq                 uint64
	worker              int32

	t0, t5, replyDur    int64
	haveSend, haveReply bool
	decode              int64

	// Worker-side, on the worker clock: frame arrival, first compute
	// start, reply tx start (and its duration), each when seen.
	at               [3]int64
	have             [3]bool
	txDur            int64
	computes, queues []ExpertSpan
	offset, errBound int64
	haveWorkerEvents bool
}

// Assemble merges the master's events (which, in a shared-handle
// deployment, already include worker events at clock offset 0) with any
// separately fetched worker rings and computes the per-request span
// decomposition.
func Assemble(master []obs.Event, workers ...WorkerEvents) *Timeline {
	accs := make(map[key]*acc)
	get := func(ev obs.Event) *acc {
		k := key{ev.Worker, ev.Seq}
		a, ok := accs[k]
		if !ok {
			a = &acc{step: ev.Step, layer: ev.Layer, expert: ev.Expert, seq: ev.Seq, worker: ev.Worker}
			accs[k] = a
		}
		return a
	}
	tl := &Timeline{}
	fold := func(ev obs.Event, offset, errBound int64) {
		switch ev.Kind {
		case obs.EvSend:
			a := get(ev)
			a.t0, a.haveSend = ev.At, true
			a.step, a.layer, a.expert = ev.Step, ev.Layer, ev.Expert
		case obs.EvReply:
			a := get(ev)
			a.t5, a.replyDur, a.haveReply = ev.At, ev.Dur, true
		case obs.EvDecode:
			get(ev).decode += ev.Dur
		case obs.EvWkRecv:
			a := get(ev)
			a.at[0], a.have[0] = ev.At, true
			a.offset, a.errBound, a.haveWorkerEvents = offset, errBound, true
		case obs.EvWkQueue:
			a := get(ev)
			if !a.have[1] || ev.At < a.at[1] {
				a.at[1] = ev.At
			}
			a.have[1] = true
			a.queues = append(a.queues, ExpertSpan{Expert: int(ev.Expert), Start: ev.At - ev.Dur, Dur: ev.Dur})
			a.offset, a.errBound, a.haveWorkerEvents = offset, errBound, true
		case obs.EvCompute:
			a := get(ev)
			a.computes = append(a.computes, ExpertSpan{Expert: int(ev.Expert), Start: ev.At - ev.Dur, Dur: ev.Dur})
			a.offset, a.errBound, a.haveWorkerEvents = offset, errBound, true
		case obs.EvWkReply:
			a := get(ev)
			a.at[2], a.txDur, a.have[2] = ev.At-ev.Dur, ev.Dur, true
			a.offset, a.errBound, a.haveWorkerEvents = offset, errBound, true
		case obs.EvSpan:
			if ev.Phase != obs.PhaseNone {
				tl.Phases = append(tl.Phases, ev)
			}
		}
	}
	for _, ev := range master {
		fold(ev, 0, 0)
	}
	for _, w := range workers {
		for _, ev := range w.Events {
			// Master-side kinds can only come from the master's own ring; a
			// worker ring never records them, so no double counting.
			fold(ev, w.OffsetNs, w.ErrBoundNs)
		}
	}

	for _, a := range accs {
		if !a.haveSend || !a.haveReply {
			continue // uncorrelated remnant (ring wrap, in-flight at snapshot)
		}
		r := Request{
			Step: int(a.step), Layer: int(a.layer), Expert: int(a.expert),
			Worker: int(a.worker), Seq: a.seq,
			T0: a.t0, T5: a.t5, ReplyDur: a.replyDur, Decode: a.decode,
			HasWorker: a.haveWorkerEvents, ErrBound: a.errBound,
			Computes: a.computes, Queues: a.queues,
		}
		// Boundary chain on the master timebase: T0, arrival, compute
		// start, reply tx. The worker's spans are read on its own clock and
		// need no θ, which only places them: off shifts them as little as
		// keeps them whole inside [T0, T5], so one preempted ping, which
		// moves the EWMA θ by α times its delay, cannot clamp every
		// boundary to one end. The chain is clamped monotone into [T0, T5]
		// so the spans telescope exactly.
		off, lo, hi := a.offset, int64(math.MaxInt64), int64(math.MinInt64)
		for i, ok := range a.have {
			if ok {
				lo, hi = min(lo, a.at[i]), max(hi, a.at[i])
			}
		}
		if lo <= hi {
			off = lo - clamp(lo-a.offset, r.T0, r.T5-min(hi-lo, r.T5-r.T0))
		}
		t := [4]int64{r.T0}
		for i, ok := range a.have {
			if t[i+1] = t[i]; ok {
				t[i+1] = clamp(a.at[i]-off, t[i], r.T5)
			}
		}
		if a.have[2] {
			r.ReplyTx = ExpertSpan{Expert: int(a.expert), Start: t[3], Dur: a.txDur}
		}
		for _, spans := range [][]ExpertSpan{r.Computes, r.Queues} {
			for i := range spans {
				spans[i].Start -= off
			}
		}
		r.SendWire, r.Queue, r.Compute, r.ReplyWire = t[1]-t[0], t[2]-t[1], t[3]-t[2], r.T5-t[3]
		tl.Requests = append(tl.Requests, r)
	}
	sort.Slice(tl.Requests, func(i, j int) bool {
		if tl.Requests[i].T0 != tl.Requests[j].T0 {
			return tl.Requests[i].T0 < tl.Requests[j].T0
		}
		return tl.Requests[i].Seq < tl.Requests[j].Seq
	})
	sort.Slice(tl.Phases, func(i, j int) bool { return tl.Phases[i].At < tl.Phases[j].At })
	return tl
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bound names what dominated a worker's time in a step.
type Bound string

// Straggler attributions.
const (
	BoundCompute Bound = "compute"
	BoundQueue   Bound = "queue"
	BoundNetwork Bound = "network"
)

// WorkerStepStats aggregates one worker's requests within a step.
type WorkerStepStats struct {
	Worker   int
	Requests int
	// WallNs is this worker's chain length: last reply arrival minus
	// first send.
	WallNs int64
	// Span sums across the worker's requests.
	ComputeNs, QueueNs, NetworkNs, DecodeNs int64
}

// Dominant classifies the worker's time: the largest of the three
// buckets (compute, queue, network = send-wire + reply-wire).
func (w *WorkerStepStats) Dominant() Bound {
	switch {
	case w.ComputeNs >= w.QueueNs && w.ComputeNs >= w.NetworkNs:
		return BoundCompute
	case w.QueueNs >= w.NetworkNs:
		return BoundQueue
	}
	return BoundNetwork
}

// StepCritical is one step's critical-path attribution.
type StepCritical struct {
	Step int
	// WallNs spans the step's first send to its last reply.
	WallNs int64
	// Workers holds every participating worker's aggregate, sorted by
	// descending WallNs; Workers[0] is the bounding (critical-path)
	// worker.
	Workers []WorkerStepStats
}

// Critical returns the bounding worker's aggregate.
func (s *StepCritical) Critical() *WorkerStepStats { return &s.Workers[0] }

// CriticalPath groups the assembled requests by step and attributes
// each step to the worker chain that bounded it: the worker whose
// first-send→last-reply wall time is longest, classified as compute-,
// queue-, or network-bound by its largest span bucket.
func (tl *Timeline) CriticalPath() []StepCritical {
	type wkey struct{ step, worker int }
	perWorker := make(map[wkey]*WorkerStepStats)
	type bounds struct{ min, max int64 }
	stepBounds := make(map[int]*bounds)
	wkBounds := make(map[wkey]*bounds)
	for i := range tl.Requests {
		r := &tl.Requests[i]
		k := wkey{r.Step, r.Worker}
		ws, ok := perWorker[k]
		if !ok {
			ws = &WorkerStepStats{Worker: r.Worker}
			perWorker[k] = ws
			wkBounds[k] = &bounds{min: r.T0, max: r.T5}
		}
		ws.Requests++
		ws.ComputeNs += r.Compute
		ws.QueueNs += r.Queue
		ws.NetworkNs += r.SendWire + r.ReplyWire
		ws.DecodeNs += r.Decode
		wb := wkBounds[k]
		if r.T0 < wb.min {
			wb.min = r.T0
		}
		if r.T5 > wb.max {
			wb.max = r.T5
		}
		sb, ok := stepBounds[r.Step]
		if !ok {
			stepBounds[r.Step] = &bounds{min: r.T0, max: r.T5}
		} else {
			if r.T0 < sb.min {
				sb.min = r.T0
			}
			if r.T5 > sb.max {
				sb.max = r.T5
			}
		}
	}
	perStep := make(map[int][]WorkerStepStats)
	for k, ws := range perWorker {
		ws.WallNs = wkBounds[k].max - wkBounds[k].min
		perStep[k.step] = append(perStep[k.step], *ws)
	}
	out := make([]StepCritical, 0, len(perStep))
	for step, workers := range perStep {
		sort.Slice(workers, func(i, j int) bool {
			if workers[i].WallNs != workers[j].WallNs {
				return workers[i].WallNs > workers[j].WallNs
			}
			return workers[i].Worker < workers[j].Worker
		})
		sb := stepBounds[step]
		out = append(out, StepCritical{Step: step, WallNs: sb.max - sb.min, Workers: workers})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// WriteCriticalPath prints the per-step attribution table plus a
// per-worker straggler summary — the exit report companion to
// obs.WriteReport.
func (tl *Timeline) WriteCriticalPath(w io.Writer) error {
	bw := bufio.NewWriter(w)
	steps := tl.CriticalPath()
	if len(steps) == 0 {
		fmt.Fprintf(bw, "critical path: no correlated requests traced\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "per-step critical path (%d steps traced):\n", len(steps))
	fmt.Fprintf(bw, "  %4s %10s  %-8s %-8s %10s %10s %10s\n",
		"step", "wall (ms)", "bounded", "by", "comp (ms)", "queue (ms)", "net (ms)")
	agg := make(map[int]*WorkerStepStats)
	bounded := make(map[int]int)
	for i := range steps {
		s := &steps[i]
		c := s.Critical()
		fmt.Fprintf(bw, "  %4d %10.3f  worker %-2d %-8s %10.3f %10.3f %10.3f\n",
			s.Step, ms(s.WallNs), c.Worker, c.Dominant(),
			ms(c.ComputeNs), ms(c.QueueNs), ms(c.NetworkNs))
		bounded[c.Worker]++
		for _, ws := range s.Workers {
			a, ok := agg[ws.Worker]
			if !ok {
				a = &WorkerStepStats{Worker: ws.Worker}
				agg[ws.Worker] = a
			}
			a.Requests += ws.Requests
			a.ComputeNs += ws.ComputeNs
			a.QueueNs += ws.QueueNs
			a.NetworkNs += ws.NetworkNs
			a.DecodeNs += ws.DecodeNs
		}
	}
	ids := make([]int, 0, len(agg))
	for n := range agg {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	fmt.Fprintf(bw, "per-worker straggler attribution:\n")
	fmt.Fprintf(bw, "  %-9s %6s %10s %10s %10s %10s  %-8s %s\n",
		"worker", "reqs", "comp (ms)", "queue (ms)", "net (ms)", "dec (ms)", "dominant", "bounded steps")
	for _, n := range ids {
		a := agg[n]
		fmt.Fprintf(bw, "  worker %-2d %6d %10.3f %10.3f %10.3f %10.3f  %-8s %d/%d\n",
			n, a.Requests, ms(a.ComputeNs), ms(a.QueueNs), ms(a.NetworkNs), ms(a.DecodeNs),
			a.Dominant(), bounded[n], len(steps))
	}
	return bw.Flush()
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// chromeEvent is one Chrome trace-event JSON record. Only "X" complete
// events and "M" metadata events are emitted, so every span is
// self-delimiting (no B/E pairing to break).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Track layout of the export: the master is pid 0 (one tid per worker
// request stream, plus phaseTid for the step-phase track) and worker n
// is pid n+1 with tid = expert (coalescedTid for whole-frame spans).
const (
	masterPid    = 0
	phaseTid     = 999
	coalescedTid = -1
)

func us(ns int64) float64 { return float64(ns) / 1e3 }

func durArg(ns int64) *float64 { v := us(ns); return &v }

// WriteChromeTrace exports the timeline as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing: pid 0 is the master (request round trips per worker
// stream plus the step-phase track), pid n+1 is worker n with one tid
// per expert. Events are globally sorted by timestamp.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	workers := make(map[int]bool)
	for i := range tl.Requests {
		r := &tl.Requests[i]
		workers[r.Worker] = true
		name := fmt.Sprintf("xchg L%d/E%d", r.Layer, r.Expert)
		if r.Expert < 0 {
			name = fmt.Sprintf("xchg L%d coalesced", r.Layer)
		}
		evs = append(evs, chromeEvent{
			Name: name, Ph: "X", Ts: us(r.T0), Dur: durArg(r.T5 - r.T0),
			Pid: masterPid, Tid: r.Worker,
			Args: map[string]any{
				"seq": r.Seq, "step": r.Step,
				"send_wire_us": us(r.SendWire), "queue_us": us(r.Queue),
				"compute_us": us(r.Compute), "reply_wire_us": us(r.ReplyWire),
				"decode_us": us(r.Decode), "clock_err_us": us(r.ErrBound),
			},
		})
		pid := r.Worker + 1
		for _, q := range r.Queues {
			evs = append(evs, chromeEvent{
				Name: "queue", Ph: "X", Ts: us(q.Start), Dur: durArg(q.Dur),
				Pid: pid, Tid: q.Expert, Args: map[string]any{"seq": r.Seq},
			})
		}
		for _, c := range r.Computes {
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("compute L%d", r.Layer), Ph: "X", Ts: us(c.Start), Dur: durArg(c.Dur),
				Pid: pid, Tid: c.Expert, Args: map[string]any{"seq": r.Seq},
			})
		}
		if r.ReplyTx.Dur > 0 {
			tid := r.ReplyTx.Expert
			if r.Expert < 0 {
				tid = coalescedTid
			}
			evs = append(evs, chromeEvent{
				Name: "reply tx", Ph: "X", Ts: us(r.ReplyTx.Start), Dur: durArg(r.ReplyTx.Dur),
				Pid: pid, Tid: tid, Args: map[string]any{"seq": r.Seq},
			})
		}
	}
	for _, ph := range tl.Phases {
		evs = append(evs, chromeEvent{
			Name: ph.Phase.String(), Ph: "X", Ts: us(ph.At - ph.Dur), Dur: durArg(ph.Dur),
			Pid: masterPid, Tid: phaseTid, Args: map[string]any{"step": ph.Step},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	// Metadata first: process and thread names for every track.
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: masterPid, Tid: 0,
		Args: map[string]any{"name": "master"},
	}, {
		Name: "thread_name", Ph: "M", Pid: masterPid, Tid: phaseTid,
		Args: map[string]any{"name": "step phases"},
	}}
	ids := make([]int, 0, len(workers))
	for n := range workers {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	for _, n := range ids {
		meta = append(meta,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: masterPid, Tid: n,
				Args: map[string]any{"name": fmt.Sprintf("worker %d stream", n)}},
			chromeEvent{Name: "process_name", Ph: "M", Pid: n + 1, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", n)}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: n + 1, Tid: coalescedTid,
				Args: map[string]any{"name": "frame tx"}},
		)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	writeEv := func(ev chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder appends a newline per value; harmless inside the array.
		return enc.Encode(ev)
	}
	for _, ev := range meta {
		if err := writeEv(ev); err != nil {
			return err
		}
	}
	for _, ev := range evs {
		if err := writeEv(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n"); err != nil {
		return err
	}
	return bw.Flush()
}
