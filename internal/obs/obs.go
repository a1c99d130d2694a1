// Package obs is the observability layer of the reproduction: a
// zero-steady-state-allocation event tracer for the expert-exchange
// lifecycle, fixed-bucket latency/size histograms, step-phase spans with a
// per-step breakdown table, a placement-fidelity (P-matrix drift) monitor,
// the runtime counter table, and Prometheus-text scrape endpoints.
//
// Timing hangs off a *Handle whose methods are nil-receiver-safe: an
// uninstrumented runtime passes a nil handle and every hook costs one
// predictable branch, no allocation, no lock.
//
// Counting hangs off a *Counters (counters.go), equally nil-safe and built
// without a Handle: one declarative table is the single home of every
// traffic, recovery, re-placement and checkpoint counter, and the only
// source of their /metrics families and exit-report lines. Adding a
// counter is one constant plus one table row.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Phase names a step-level span.
type Phase uint8

// Step phases, in execution order.
const (
	PhaseNone Phase = iota
	PhaseForward
	PhaseBackward
	PhaseExchange
	PhaseOptimizer
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return ""
	case PhaseForward:
		return "forward"
	case PhaseBackward:
		return "backward"
	case PhaseExchange:
		return "expert-exchange"
	case PhaseOptimizer:
		return "optimizer"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Config sizes a Handle.
type Config struct {
	// Workers is the worker-pool size (per-worker histograms are
	// preallocated for indices [0, Workers)).
	Workers int
	// Layers × Experts sizes the drift monitor's P̂ matrix.
	Layers  int
	Experts int
	// TraceCapacity is the event ring size (default 4096).
	TraceCapacity int
}

// sendStamp is a worker's outstanding request: its Seq and send time.
type sendStamp struct {
	seq atomic.Uint64
	at  atomic.Int64
}

// phaseAgg accumulates one phase's span time.
type phaseAgg struct {
	ns atomic.Int64
	n  atomic.Uint64
}

// Handle is the per-process instrumentation root. One lives on the
// master (fed by the broker Executor, the trainer, and moe gating) and
// one on each worker (fed by runExpert). All hook methods are safe for
// concurrent use, never allocate in steady state, and are no-ops on a
// nil receiver.
type Handle struct {
	// Trace is the lifecycle event ring.
	Trace *Tracer
	// Drift is the placement-fidelity monitor (EWMA coefficient 0.05; a
	// test wanting another installs NewDriftMonitor's).
	Drift *DriftMonitor
	// Clocks holds the per-worker clock-offset/RTT estimates fed by the
	// heartbeat ping's timestamp echoes (zero-valued until the first
	// sampled ping; in-process deployments share the master clock and
	// keep the identity offset).
	Clocks *ClockSync

	// Per-worker histograms, indexed by worker ID. Hooks with an
	// out-of-range worker index are dropped (a worker-side handle sized
	// for its own ID simply ignores foreign IDs).
	ReqLatency   []*Histogram // send→reply seconds
	Compute      []*Histogram // expert compute seconds (worker side)
	StragglerGap []*Histogram // slowest-minus-this-worker round seconds

	// Aggregate histograms.
	QueueWait *Histogram // seconds a request waited behind its row
	FrameTx   *Histogram // encoded request bytes
	FrameRx   *Histogram // encoded reply bytes

	phases  [numPhases]phaseAgg
	curStep atomic.Int64
	steps   atomic.Uint64

	// sent[n] stamps worker n's outstanding request for OnReply: the
	// broker has at most one in flight per worker.
	sent []sendStamp

	// roundDur[n] is worker n's duration in the current exchange round;
	// RoundEnd turns the per-worker deltas into straggler gaps.
	roundDur []atomic.Int64

	// exchangeNs accumulates exchange-span time within the current step
	// for the measured-comm gauge.
	exchangeNs atomic.Int64
}

// NewHandle builds a handle. Zero config fields select defaults; Workers
// of zero still yields a usable handle with no per-worker histograms.
func NewHandle(cfg Config) *Handle {
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 4096
	}
	h := &Handle{
		Trace:     newTracer(cfg.TraceCapacity),
		Drift:     NewDriftMonitor(cfg.Layers, cfg.Experts, 0),
		Clocks:    newClockSync(cfg.Workers),
		QueueWait: newHistogram(latencyBounds()),
		FrameTx:   newHistogram(sizeBounds()),
		FrameRx:   newHistogram(sizeBounds()),
	}
	h.ReqLatency = make([]*Histogram, cfg.Workers)
	h.Compute = make([]*Histogram, cfg.Workers)
	h.StragglerGap = make([]*Histogram, cfg.Workers)
	h.sent = make([]sendStamp, cfg.Workers)
	h.roundDur = make([]atomic.Int64, cfg.Workers)
	for n := 0; n < cfg.Workers; n++ {
		h.ReqLatency[n] = newHistogram(latencyBounds())
		h.Compute[n] = newHistogram(latencyBounds())
		h.StragglerGap[n] = newHistogram(latencyBounds())
	}
	return h
}

// workers returns how many per-worker histogram slots the handle holds.
func (h *Handle) workers() int {
	if h == nil {
		return 0
	}
	return len(h.ReqLatency)
}

func (h *Handle) stepNow() int32 {
	return int32(h.curStep.Load())
}

// StartStep marks the beginning of an attempt at training step `step`;
// subsequent trace events carry it. The exchange time of an earlier,
// failed attempt is dropped.
func (h *Handle) StartStep(step int) {
	if h == nil {
		return
	}
	h.curStep.Store(int64(step))
	h.exchangeNs.Store(0)
}

// EndStep counts a completed step, its boundary included, so a retried
// step counts once: the drift monitor folds what routing the boundary has
// not into P̂, the step counts in Steps, and its
// accumulated exchange time feeds the measured-comm gauge.
func (h *Handle) EndStep() {
	if h == nil {
		return
	}
	h.steps.Add(1)
	h.Drift.EndStep()
	if ns := h.exchangeNs.Swap(0); ns > 0 {
		h.Drift.addMeasuredComm(float64(ns) / 1e9)
	}
}

// Steps returns how many steps have completed.
func (h *Handle) Steps() uint64 {
	if h == nil {
		return 0
	}
	return h.steps.Load()
}

// RecordRouting forwards one layer's gate selections to the drift
// monitor.
func (h *Handle) RecordRouting(layer int, selections [][]int) {
	if h == nil {
		return
	}
	h.Drift.recordRouting(layer, selections)
}

// OnEnqueue records a request of worker n's row coming up for sending
// after waiting `wait` behind the row's earlier requests.
func (h *Handle) OnEnqueue(n, layer, expert int, wait time.Duration) {
	if h == nil {
		return
	}
	h.QueueWait.Observe(wait.Seconds())
	h.Trace.Record(Event{
		Kind: EvEnqueue, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Dur: wait.Nanoseconds(),
	})
}

// OnSend records a request of `bytes` encoded bytes going on the wire to
// worker n and stamps its send time for latency matching.
func (h *Handle) OnSend(n, layer, expert int, seq uint64, bytes int) {
	if h == nil {
		return
	}
	now := h.Trace.Clock()
	if n >= 0 && n < len(h.sent) {
		h.sent[n].seq.Store(seq)
		h.sent[n].at.Store(now)
	}
	h.FrameTx.Observe(float64(bytes))
	h.Trace.Record(Event{
		At: now, Kind: EvSend, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Bytes: int64(bytes),
	})
}

// OnReply records a correlated reply of `bytes` encoded bytes from
// worker n; the send→reply latency is recovered from the worker's send
// stamp when it names the same Seq.
func (h *Handle) OnReply(n int, seq uint64, bytes int) {
	if h == nil {
		return
	}
	now := h.Trace.Clock()
	var lat int64
	if n >= 0 && n < len(h.sent) && h.sent[n].seq.Load() == seq {
		if ts := h.sent[n].at.Swap(0); ts > 0 && ts <= now {
			lat = now - ts
			h.ReqLatency[n].Observe(float64(lat) / 1e9)
		}
	}
	h.FrameRx.Observe(float64(bytes))
	h.Trace.Record(Event{
		At: now, Kind: EvReply, Step: h.stepNow(), Worker: int32(n),
		Seq: seq, Dur: lat, Bytes: int64(bytes),
	})
}

// OnDecode records a reply payload decoded into a tensor.
func (h *Handle) OnDecode(n, layer, expert int, seq uint64, d time.Duration) {
	if h == nil {
		return
	}
	h.Trace.Record(Event{
		Kind: EvDecode, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Dur: d.Nanoseconds(),
	})
}

// OnCompute records one expert forward/backward taking d on worker n,
// correlated to the request by seq. Called worker-side from runExpert;
// on a handle sized for fewer workers the histogram observation is
// dropped but the trace event is kept.
func (h *Handle) OnCompute(n, layer, expert int, seq uint64, d time.Duration) {
	if h == nil {
		return
	}
	if n >= 0 && n < len(h.Compute) {
		h.Compute[n].Observe(d.Seconds())
	}
	h.Trace.Record(Event{
		Kind: EvCompute, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Dur: d.Nanoseconds(),
	})
}

// OnWorkerRecv records a request frame of `bytes` encoded bytes arriving
// at worker n at time `at` (the worker tracer's clock). Returns `at`
// stamped by the hook when the caller passes 0.
func (h *Handle) OnWorkerRecv(n, layer, expert int, seq uint64, at int64, bytes int) {
	if h == nil {
		return
	}
	h.Trace.Record(Event{
		At: at, Kind: EvWkRecv, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Bytes: int64(bytes),
	})
}

// OnWorkerQueue records a worker request's compute starting after
// waiting `wait` since frame arrival.
func (h *Handle) OnWorkerQueue(n, layer, expert int, seq uint64, wait time.Duration) {
	if h == nil {
		return
	}
	h.Trace.Record(Event{
		Kind: EvWkQueue, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Dur: wait.Nanoseconds(),
	})
}

// OnWorkerReply records worker n's reply of `bytes` encoded bytes handed
// to the transport after `d` of encode+send (including the
// reply-serialization wait).
func (h *Handle) OnWorkerReply(n, layer, expert int, seq uint64, d time.Duration, bytes int) {
	if h == nil {
		return
	}
	h.Trace.Record(Event{
		Kind: EvWkReply, Step: h.stepNow(), Worker: int32(n),
		Layer: int32(layer), Expert: int32(expert), Seq: seq, Dur: d.Nanoseconds(), Bytes: int64(bytes),
	})
}

// RoundStart opens an exchange round and returns its start timestamp
// (pass to WorkerRoundDone). A nil handle returns 0.
func (h *Handle) RoundStart() int64 {
	if h == nil {
		return 0
	}
	return h.Trace.Clock()
}

// WorkerRoundDone marks worker n's share of the round (started at
// startNs) as complete.
func (h *Handle) WorkerRoundDone(n int, startNs int64) {
	if h == nil || n < 0 || n >= len(h.roundDur) {
		return
	}
	h.roundDur[n].Store(h.Trace.Clock() - startNs)
}

// RoundEnd closes an exchange round: each participating worker's
// straggler gap (slowest worker's duration minus its own) is observed
// and the scratch durations are cleared.
func (h *Handle) RoundEnd() {
	if h == nil {
		return
	}
	var max int64
	for n := range h.roundDur {
		if d := h.roundDur[n].Load(); d > max {
			max = d
		}
	}
	if max == 0 {
		return
	}
	for n := range h.roundDur {
		if d := h.roundDur[n].Swap(0); d > 0 {
			h.StragglerGap[n].Observe(float64(max-d) / 1e9)
		}
	}
}

// Span is an open step-phase interval. It is a value type: Begin/End pairs
// allocate nothing.
type Span struct {
	h     *Handle
	start int64
	phase Phase
}

// Begin opens a span for phase p. On a nil handle the returned span is
// inert.
func (h *Handle) Begin(p Phase) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: h.Trace.Clock(), phase: p}
}

// End closes the span: the phase aggregate advances and an EvSpan trace
// event is recorded. Exchange spans additionally feed the step's
// measured communication time.
func (s Span) End() {
	h := s.h
	if h == nil {
		return
	}
	end := h.Trace.Clock()
	dur := end - s.start
	agg := &h.phases[s.phase]
	agg.ns.Add(dur)
	agg.n.Add(1)
	if s.phase == PhaseExchange {
		h.exchangeNs.Add(dur)
	}
	h.Trace.Record(Event{At: end, Kind: EvSpan, Step: h.stepNow(), Phase: s.phase, Dur: dur})
}

// PhaseStat is one row of the per-step breakdown table.
type PhaseStat struct {
	Phase     Phase
	Count     uint64
	TotalSec  float64
	PerStepMs float64
}

// Breakdown returns the per-phase time aggregates. PerStepMs divides by
// the number of completed steps (or 1 before the first EndStep).
func (h *Handle) Breakdown() []PhaseStat {
	if h == nil {
		return nil
	}
	steps := h.steps.Load()
	if steps == 0 {
		steps = 1
	}
	out := make([]PhaseStat, 0, int(numPhases)-1)
	for p := PhaseForward; p < numPhases; p++ {
		agg := &h.phases[p]
		total := float64(agg.ns.Load()) / 1e9
		out = append(out, PhaseStat{
			Phase:     p,
			Count:     agg.n.Load(),
			TotalSec:  total,
			PerStepMs: total / float64(steps) * 1e3,
		})
	}
	return out
}

// writeBreakdown prints the per-step breakdown table plus the drift and
// comm gauges — the timing half of WriteReport.
func (h *Handle) writeBreakdown(pw *promWriter) {
	if h == nil {
		return
	}
	pw.printf("per-step breakdown (%d steps):\n", h.Steps())
	pw.printf("  %-16s %8s %12s %12s\n", "phase", "spans", "total (s)", "ms/step")
	for _, st := range h.Breakdown() {
		pw.printf("  %-16s %8d %12.4f %12.3f\n", st.Phase.String(), st.Count, st.TotalSec, st.PerStepMs)
	}
	if drift := h.Drift.Drift(); drift != nil {
		pw.printf("placement drift (L1 per layer, 0=faithful):\n")
		for l, v := range drift {
			pw.printf("  layer %2d: %.4f\n", l, v)
		}
		pw.printf("  max: %.4f\n", h.Drift.MaxDrift())
	}
	if pred, meas := h.Drift.CommGauges(); pred > 0 || meas > 0 {
		predStr := "n/a"
		if pred > 0 {
			predStr = fmt.Sprintf("%.6fs", pred)
		}
		pw.printf("step comm time: predicted %s, measured %.6fs\n", predStr, meas)
	}
}

// ConnSend implements transport.Meter: one encoded frame of `bytes`
// leaving this process.
func (h *Handle) ConnSend(bytes int) {
	if h == nil {
		return
	}
	h.FrameTx.Observe(float64(bytes))
}

// ConnRecv implements transport.Meter: one encoded frame of `bytes`
// arriving.
func (h *Handle) ConnRecv(bytes int) {
	if h == nil {
		return
	}
	h.FrameRx.Observe(float64(bytes))
}
