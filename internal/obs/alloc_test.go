package obs

import (
	"testing"
	"time"
)

// TestHotPathHooksDoNotAllocate pins the tentpole's core contract: every
// hook the broker's exchange hot path calls per request — and the span
// pair the trainer calls per phase — allocates nothing in steady state.
// Together with the allocbound analyzer (which bans allocation syntax in
// these functions statically) and the instrumented-exchange benchmark,
// this is the "zero steady-state heap allocations" acceptance criterion.
func TestHotPathHooksDoNotAllocate(t *testing.T) {
	h := NewHandle(Config{Workers: 2, Layers: 2, Experts: 3})
	h.Drift.SetBaseline([][]float64{{0.5, 0.5, 0}, {0.5, 0.5, 0}})
	ctr := NewCounters([]bool{false, true})
	sel := [][]int{{0, 1, 2, 1}}
	var seq uint64

	cases := []struct {
		name string
		fn   func()
	}{
		{"Tracer.Record", func() {
			h.Trace.Record(Event{Kind: EvSend, Seq: seq})
			seq++
		}},
		{"Histogram.Observe", func() { h.QueueWait.Observe(1e-4) }},
		{"OnEnqueue", func() { h.OnEnqueue(1, 0, 2, 3*time.Microsecond) }},
		{"OnSend", func() {
			h.OnSend(1, 0, 2, seq, 4096)
			seq++
		}},
		{"OnSend+OnReply", func() {
			h.OnSend(0, 1, 1, seq, 4096)
			h.OnReply(0, seq, 2048)
			seq++
		}},
		{"OnDecode", func() { h.OnDecode(0, 1, 1, seq, time.Microsecond) }},
		{"OnCompute", func() { h.OnCompute(1, 0, 2, 7, 50*time.Microsecond) }},
		{"OnWorkerRecv", func() { h.OnWorkerRecv(1, 0, 2, seq, 12345, 4096) }},
		{"OnWorkerQueue", func() { h.OnWorkerQueue(1, 0, 2, seq, 3*time.Microsecond) }},
		{"OnWorkerReply", func() { h.OnWorkerReply(1, 0, 2, seq, 9*time.Microsecond, 2048) }},
		{"Span", func() {
			sp := h.Begin(PhaseExchange)
			sp.End()
		}},
		{"Round", func() {
			start := h.RoundStart()
			h.WorkerRoundDone(0, start)
			h.WorkerRoundDone(1, start)
			h.RoundEnd()
		}},
		{"RecordRouting", func() { h.RecordRouting(0, sel) }},
		{"Counters frame sent", func() {
			ctr.AddWorker(TrafficBytesTo, 1, 4096)
			ctr.AddWorker(TrafficTokensTo, 1, 16)
			ctr.AddWorker(TrafficFrames, 1, 1)
		}},
		{"Counters frame received", func() {
			ctr.AddWorker(TrafficBytesFrom, 1, 4096)
			ctr.AddWorker(TrafficTokensFrom, 1, 16)
			ctr.AddWorker(TrafficFrames, 1, 1)
		}},
		{"Counters reply anomalies", func() {
			ctr.Add(RecvTimeouts, 1)
			ctr.Add(RecvRetries, 1)
			ctr.Add(StaleReplies, 1)
			ctr.Add(DuplicateReplies, 1)
		}},
		{"ConnMeter", func() {
			h.ConnSend(1024)
			h.ConnRecv(512)
		}},
	}
	for _, c := range cases {
		c.fn() // warm any first-use paths before measuring
		if allocs := testing.AllocsPerRun(200, c.fn); allocs > 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// TestNilHandleHooksDoNotAllocate pins the uninstrumented side of the
// contract: a nil handle's hooks are branch-only.
func TestNilHandleHooksDoNotAllocate(t *testing.T) {
	var h *Handle
	var ctr *Counters
	fn := func() {
		ctr.AddWorker(TrafficBytesTo, 0, 1)
		ctr.Add(RecvTimeouts, 1)
		ctr.Set(ReplaceCooldown, 1)
		h.StartStep(1)
		h.OnEnqueue(0, 0, 0, time.Microsecond)
		h.OnSend(0, 0, 0, 1, 10)
		h.OnReply(0, 1, 10)
		h.OnDecode(0, 0, 0, 1, time.Microsecond)
		h.OnCompute(0, 0, 0, 1, time.Microsecond)
		h.OnWorkerRecv(0, 0, 0, 1, 0, 10)
		h.OnWorkerQueue(0, 0, 0, 1, time.Microsecond)
		h.OnWorkerReply(0, 0, 0, 1, time.Microsecond, 10)
		sp := h.Begin(PhaseForward)
		sp.End()
		h.WorkerRoundDone(0, h.RoundStart())
		h.RoundEnd()
		h.RecordRouting(0, nil)
		h.ConnSend(1)
		h.ConnRecv(1)
		h.EndStep()
	}
	if allocs := testing.AllocsPerRun(100, fn); allocs > 0 {
		t.Fatalf("nil-handle hooks allocate %.1f times per call, want 0", allocs)
	}
}
