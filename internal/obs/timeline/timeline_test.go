package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

// synthReq builds the master+worker event pair of one exchange whose
// ground truth is known: the worker runs at clock offset θ, the request
// spends `wire` on each wire leg, `queue` waiting for its compute,
// `comp` computing, and `tx` in reply encode+send.
func synthReq(seq uint64, worker, layer, expert int32, t0, wire, queue, comp, tx, θ int64) (master, wk []obs.Event) {
	t1w := t0 + wire + θ // frame arrival, worker clock
	t2w := t1w + queue   // compute starts
	t3w := t2w + comp    // compute done = reply serialization starts
	t4w := t3w + tx      // reply handed to the transport
	t5 := t4w - θ + wire // reply back on the master
	master = []obs.Event{
		{At: t0, Kind: obs.EvSend, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Bytes: 4096},
		{At: t5, Kind: obs.EvReply, Worker: worker, Seq: seq, Dur: t5 - t0, Bytes: 2048},
		{At: t5 + 1000, Kind: obs.EvDecode, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Dur: 700},
	}
	wk = []obs.Event{
		{At: t1w, Kind: obs.EvWkRecv, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Bytes: 4096},
		{At: t2w, Kind: obs.EvWkQueue, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Dur: queue},
		{At: t3w, Kind: obs.EvCompute, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Dur: comp},
		{At: t4w, Kind: obs.EvWkReply, Worker: worker, Layer: layer, Expert: expert, Seq: seq, Dur: tx, Bytes: 2048},
	}
	return
}

// TestAssembleRecoversSpans pins the decomposition on a request with a
// known ground truth and a correctly estimated clock offset: every span
// comes back exactly, and the telescoping identity holds.
func TestAssembleRecoversSpans(t *testing.T) {
	const θ = 5_000_000 // worker 5ms ahead of the master
	master, wk := synthReq(7, 1, 2, 3, 1_000_000, 200_000, 50_000, 900_000, 30_000, θ)
	tl := Assemble(master, WorkerEvents{Events: wk, OffsetNs: θ, ErrBoundNs: 40_000})
	if len(tl.Requests) != 1 {
		t.Fatalf("assembled %d requests, want 1", len(tl.Requests))
	}
	r := tl.Requests[0]
	if r.Seq != 7 || r.Worker != 1 || r.Layer != 2 || r.Expert != 3 {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if !r.HasWorker || r.ErrBound != 40_000 {
		t.Fatalf("worker correlation lost: HasWorker=%v ErrBound=%d", r.HasWorker, r.ErrBound)
	}
	if r.SendWire != 200_000 || r.Queue != 50_000 || r.Compute != 900_000 || r.ReplyWire != 230_000 {
		t.Fatalf("spans = send %d queue %d comp %d reply %d, want 200000/50000/900000/230000",
			r.SendWire, r.Queue, r.Compute, r.ReplyWire)
	}
	if r.Decode != 700 {
		t.Fatalf("Decode = %d, want 700", r.Decode)
	}
	if got, want := r.SpanSum(), r.T5-r.T0; got != want {
		t.Fatalf("telescoping violated: SpanSum %d != T5-T0 %d", got, want)
	}
	if r.ReplyDur != r.T5-r.T0 {
		t.Fatalf("ReplyDur %d != T5-T0 %d", r.ReplyDur, r.T5-r.T0)
	}
	if len(r.Computes) != 1 || r.Computes[0].Dur != 900_000 || r.Computes[0].Expert != 3 {
		t.Fatalf("per-expert compute spans wrong: %+v", r.Computes)
	}
	if r.ReplyTx.Dur != 30_000 {
		t.Fatalf("ReplyTx = %+v, want Dur 30000", r.ReplyTx)
	}
}

// TestAssembleSharedClock pins the quickstart/LocalDeployment shape: the
// in-process workers record into the master's own ring, so one Assemble
// call with no WorkerEvents yields the exact decomposition with zero
// error bound.
func TestAssembleSharedClock(t *testing.T) {
	master, wk := synthReq(3, 0, 1, 4, 500_000, 80_000, 10_000, 400_000, 20_000, 0)
	tl := Assemble(append(master, wk...))
	if len(tl.Requests) != 1 {
		t.Fatalf("assembled %d requests, want 1", len(tl.Requests))
	}
	r := tl.Requests[0]
	if !r.HasWorker || r.ErrBound != 0 {
		t.Fatalf("shared-clock request: HasWorker=%v ErrBound=%d, want true/0", r.HasWorker, r.ErrBound)
	}
	if r.SendWire != 80_000 || r.Queue != 10_000 || r.Compute != 400_000 || r.ReplyWire != 100_000 {
		t.Fatalf("spans = %d/%d/%d/%d, want 80000/10000/400000/100000",
			r.SendWire, r.Queue, r.Compute, r.ReplyWire)
	}
	if r.SpanSum() != r.ReplyDur {
		t.Fatalf("EvReply.Dur %d != span sum %d", r.ReplyDur, r.SpanSum())
	}
}

// TestAssembleMasterOnly pins graceful degradation: with no worker-side
// events the whole round trip lands in ReplyWire and the identity still
// holds.
func TestAssembleMasterOnly(t *testing.T) {
	master, _ := synthReq(1, 0, 0, 2, 100_000, 50_000, 5_000, 200_000, 10_000, 0)
	tl := Assemble(master)
	r := tl.Requests[0]
	if r.HasWorker {
		t.Fatal("HasWorker true without worker events")
	}
	if r.SendWire != 0 || r.Queue != 0 || r.Compute != 0 || r.ReplyWire != r.T5-r.T0 {
		t.Fatalf("master-only spans = %d/%d/%d/%d, want round trip entirely in ReplyWire",
			r.SendWire, r.Queue, r.Compute, r.ReplyWire)
	}
}

// TestAssembleClampsBadOffset pins the robustness clause: even a wildly
// wrong clock offset cannot break the telescoping identity, nor the
// queue and compute spans the worker's own clock measured — it only
// shifts the wire-span split, because the rebased worker interval is
// clamped whole into [T0, T5].
func TestAssembleClampsBadOffset(t *testing.T) {
	const realθ = 2_000_000
	master, wk := synthReq(9, 2, 0, 1, 1_000_000, 100_000, 20_000, 500_000, 15_000, realθ)
	for _, estθ := range []int64{0, -50_000_000, 50_000_000, realθ + 150_000, realθ - 800_000} {
		tl := Assemble(master, WorkerEvents{Events: wk, OffsetNs: estθ})
		r := tl.Requests[0]
		if got, want := r.SpanSum(), r.T5-r.T0; got != want {
			t.Fatalf("offset %d: SpanSum %d != T5-T0 %d", estθ, got, want)
		}
		if r.SendWire < 0 || r.Queue < 0 || r.Compute < 0 || r.ReplyWire < 0 {
			t.Fatalf("offset %d: negative span: %+v", estθ, r)
		}
		if r.Queue != 20_000 || r.Compute != 500_000 {
			t.Fatalf("offset %d: queue %d compute %d, want the worker clock's 20000/500000", estθ, r.Queue, r.Compute)
		}
		if c := r.Computes[0]; c.Start < r.T0 || c.Start+c.Dur > r.T5 {
			t.Fatalf("offset %d: per-expert compute [%d, %d] outside the round trip [%d, %d]", estθ, c.Start, c.Start+c.Dur, r.T0, r.T5)
		}
	}
}

// TestAssembleDropsUncorrelated pins that a send with no reply (in
// flight at snapshot, or lost to a failover) produces no request.
func TestAssembleDropsUncorrelated(t *testing.T) {
	tl := Assemble([]obs.Event{
		{At: 100, Kind: obs.EvSend, Worker: 0, Seq: 1},
		{At: 900, Kind: obs.EvReply, Worker: 0, Seq: 2, Dur: 0}, // reply with no send
	})
	if len(tl.Requests) != 0 {
		t.Fatalf("assembled %d requests from uncorrelated remnants, want 0", len(tl.Requests))
	}
}

// TestCriticalPath pins the straggler attribution: worker 1's chain is
// made three times longer and compute-heavy, so every step must be
// attributed to worker 1 as compute-bound.
func TestCriticalPath(t *testing.T) {
	var master, wk []obs.Event
	seq := uint64(0)
	for step := 0; step < 3; step++ {
		base := int64(step+1) * 10_000_000
		for w := int32(0); w < 2; w++ {
			comp := int64(300_000)
			if w == 1 {
				comp = 3_000_000
			}
			m, k := synthReq(seq, w, 0, int32(seq%4), base, 50_000, 10_000, comp, 5_000, 0)
			for i := range m {
				m[i].Step = int32(step)
			}
			for i := range k {
				k[i].Step = int32(step)
			}
			master = append(master, m...)
			wk = append(wk, k...)
			seq++
		}
	}
	tl := Assemble(master, WorkerEvents{Events: wk})
	steps := tl.CriticalPath()
	if len(steps) != 3 {
		t.Fatalf("critical path covers %d steps, want 3", len(steps))
	}
	for i, s := range steps {
		if s.Step != i {
			t.Fatalf("steps out of order: %v", s.Step)
		}
		c := s.Critical()
		if c.Worker != 1 {
			t.Fatalf("step %d bounded by worker %d, want 1", s.Step, c.Worker)
		}
		if c.Dominant() != BoundCompute {
			t.Fatalf("step %d dominant = %s, want compute", s.Step, c.Dominant())
		}
		if len(s.Workers) != 2 || s.Workers[0].WallNs < s.Workers[1].WallNs {
			t.Fatalf("step %d workers not sorted by wall: %+v", s.Step, s.Workers)
		}
		if s.WallNs <= 0 {
			t.Fatalf("step %d wall %d", s.Step, s.WallNs)
		}
	}

	var buf bytes.Buffer
	if err := tl.WriteCriticalPath(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per-step critical path (3 steps traced)", "worker 1", "compute", "3/3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("critical-path report missing %q:\n%s", want, out)
		}
	}
}

// chromeJSON is the decoded export shape the property test validates.
type chromeJSON struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// genEvents builds a random but causally consistent event population:
// requests across workers/layers/experts (some coalesced, some
// master-only, some with planted clock offsets) plus step-phase spans.
func genEvents(rng *rand.Rand) (master []obs.Event, workers []WorkerEvents) {
	nWorkers := 1 + rng.Intn(4)
	offsets := make([]int64, nWorkers)
	wk := make([][]obs.Event, nWorkers)
	for w := range offsets {
		offsets[w] = int64(rng.Intn(20_000_000)) - 10_000_000
	}
	seq := uint64(0)
	for i := 0; i < 5+rng.Intn(40); i++ {
		w := rng.Intn(nWorkers)
		t0 := int64(1_000_000 + rng.Intn(1_000_000_000))
		m, k := synthReq(seq, int32(w), int32(rng.Intn(12)), int32(rng.Intn(6)),
			t0, int64(1+rng.Intn(500_000)), int64(rng.Intn(200_000)),
			int64(1+rng.Intn(5_000_000)), int64(1+rng.Intn(50_000)), offsets[w])
		master = append(master, m...)
		switch rng.Intn(4) {
		case 0: // master-only request (worker ring wrapped)
		case 1: // partial worker view: recv only
			wk[w] = append(wk[w], k[0])
		default:
			wk[w] = append(wk[w], k...)
		}
		seq++
	}
	for step := 0; step < 3; step++ {
		at := int64(step+1) * 300_000_000
		master = append(master, obs.Event{
			At: at, Kind: obs.EvSpan, Step: int32(step),
			Phase: obs.PhaseExchange, Dur: int64(1 + rng.Intn(10_000_000)),
		})
	}
	for w := range wk {
		if len(wk[w]) > 0 {
			workers = append(workers, WorkerEvents{
				Events: wk[w], OffsetNs: offsets[w], ErrBoundNs: int64(rng.Intn(100_000)),
			})
		}
	}
	return
}

// TestChromeTraceProperty is the satellite's property test: for many
// generated event populations the export must (a) parse as JSON, (b)
// contain only self-delimiting X events plus M metadata — no B without
// an E by construction — and (c) keep ts monotone non-decreasing within
// every (pid, tid) track, with non-negative durations and the
// telescoping identity on every assembled request.
func TestChromeTraceProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		master, workers := genEvents(rng)
		tl := Assemble(master, workers...)

		for i := range tl.Requests {
			r := &tl.Requests[i]
			if got, want := r.SpanSum(), r.T5-r.T0; got != want {
				t.Fatalf("trial %d: request seq %d: SpanSum %d != T5-T0 %d", trial, r.Seq, got, want)
			}
		}

		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("trial %d: export failed: %v", trial, err)
		}
		var decoded chromeJSON
		if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
			t.Fatalf("trial %d: export is not valid JSON: %v", trial, err)
		}
		if decoded.DisplayTimeUnit != "ms" {
			t.Fatalf("trial %d: displayTimeUnit = %q", trial, decoded.DisplayTimeUnit)
		}
		lastTs := map[string]float64{}
		sawX := false
		for i, ev := range decoded.TraceEvents {
			switch ev.Ph {
			case "M":
				continue // metadata carries no timestamp ordering
			case "X":
				sawX = true
			default:
				t.Fatalf("trial %d: event %d has phase %q — only X and M are self-delimiting", trial, i, ev.Ph)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("trial %d: X event %d (%s) has dur %v", trial, i, ev.Name, ev.Dur)
			}
			track := fmt.Sprintf("%d/%d", ev.Pid, ev.Tid)
			if ev.Ts < lastTs[track] {
				t.Fatalf("trial %d: track %s ts went backwards (%f after %f)", trial, track, ev.Ts, lastTs[track])
			}
			lastTs[track] = ev.Ts
		}
		if len(tl.Requests) > 0 && !sawX {
			t.Fatalf("trial %d: %d requests but no X events exported", trial, len(tl.Requests))
		}
	}
}

// TestChromeTraceMetadata pins the track naming: master and worker
// processes and their threads are labeled for the Perfetto UI.
func TestChromeTraceMetadata(t *testing.T) {
	master, wk := synthReq(1, 0, 3, 2, 1_000_000, 10_000, 5_000, 100_000, 8_000, 0)
	tl := Assemble(append(master, wk...))
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded chromeJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "M" {
			if n, ok := ev.Args["name"].(string); ok {
				names[ev.Name+":"+n] = true
			}
		}
	}
	for _, want := range []string{
		"process_name:master", "thread_name:step phases",
		"thread_name:worker 0 stream", "process_name:worker 0",
	} {
		if !names[want] {
			t.Fatalf("metadata missing %q (have %v)", want, names)
		}
	}
	if !strings.Contains(buf.String(), "xchg L3/E2") {
		t.Fatalf("request slice name missing from export:\n%s", buf.String())
	}
}
