package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestTracerRetainsAllBeforeWrap pins the pre-wrap behavior: everything
// recorded comes back, oldest first, with zero drops.
func TestTracerRetainsAllBeforeWrap(t *testing.T) {
	tr := newTracer(64)
	for i := 0; i < 40; i++ {
		tr.Record(Event{Kind: EvSend, Seq: uint64(i)})
	}
	if tr.total() != 40 || tr.Dropped() != 0 {
		t.Fatalf("Total=%d Dropped=%d, want 40/0", tr.total(), tr.Dropped())
	}
	evs := tr.Snapshot()
	if len(evs) != 40 {
		t.Fatalf("snapshot has %d events, want 40", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d, want %d (not oldest-first)", i, ev.Seq, i)
		}
	}
}

// TestTracerWraparound pins the ring semantics: after overflowing a
// 64-slot ring with 100 events, the snapshot is exactly the newest 64 in
// order, and Dropped counts the 36 overwritten.
func TestTracerWraparound(t *testing.T) {
	tr := newTracer(64)
	const total = 100
	for i := 0; i < total; i++ {
		tr.Record(Event{Kind: EvReply, Seq: uint64(i)})
	}
	if tr.total() != total {
		t.Fatalf("Total = %d, want %d", tr.total(), total)
	}
	if tr.Dropped() != total-64 {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), total-64)
	}
	evs := tr.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot has %d events, want 64", len(evs))
	}
	for i, ev := range evs {
		want := uint64(total - 64 + i)
		if ev.Seq != want {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestTracerCapacityRounding pins the power-of-two rounding and the
// 64-slot floor.
func TestTracerCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		tr := newTracer(c.in)
		if len(tr.buf) != c.want {
			t.Fatalf("NewTracer(%d) ring size %d, want %d", c.in, len(tr.buf), c.want)
		}
	}
}

// TestTracerConcurrentRecordSnapshot hammers Record from many goroutines
// while snapshotting — meaningful under -race (make race / make check),
// where a non-striped ring write would be reported.
func TestTracerConcurrentRecordSnapshot(t *testing.T) {
	tr := newTracer(256)
	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Event{Kind: EvCompute, Worker: int32(w), Seq: uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapper.Wait()
	if tr.total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", tr.total(), writers*perWriter)
	}
	if got := len(tr.Snapshot()); got != 256 {
		t.Fatalf("post-wrap snapshot has %d events, want 256", got)
	}
}

// TestTracerNilSafe pins the uninstrumented contract.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Kind: EvSend})
	if tr.total() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil || tr.Clock() != 0 {
		t.Fatal("nil tracer is not inert")
	}
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

// TestWriteJSONL pins the export format: one valid JSON object per line
// with the fixed field set, oldest first.
func TestWriteJSONL(t *testing.T) {
	tr := newTracer(64)
	tr.Record(Event{At: 10, Kind: EvSend, Step: 3, Layer: 1, Expert: 2, Worker: 0, Seq: 7, Bytes: 1024})
	tr.Record(Event{At: 20, Kind: EvSpan, Step: 3, Phase: PhaseExchange, Dur: 5})
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first struct {
		AtNs   int64  `json:"at_ns"`
		Kind   string `json:"kind"`
		Step   int32  `json:"step"`
		Layer  int32  `json:"layer"`
		Expert int32  `json:"expert"`
		Worker int32  `json:"worker"`
		Seq    uint64 `json:"seq"`
		DurNs  int64  `json:"dur_ns"`
		Bytes  int64  `json:"bytes"`
		Phase  string `json:"phase"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first.AtNs != 10 || first.Kind != "send" || first.Step != 3 || first.Layer != 1 ||
		first.Expert != 2 || first.Seq != 7 || first.Bytes != 1024 || first.Phase != "" {
		t.Fatalf("line 0 decoded wrong: %+v", first)
	}
	var second map[string]any
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if second["kind"] != "span" || second["phase"] != "expert-exchange" {
		t.Fatalf("line 1 decoded wrong: %v", second)
	}
}

// TestEventKindStrings pins the trace vocabulary the JSONL export and
// breakdown table use.
func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvEnqueue: "enqueue", EvSend: "send", EvCompute: "compute",
		EvReply: "reply", EvDecode: "decode", EvSpan: "span",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if EventKind(99).String() != "kind(99)" {
		t.Fatalf("unknown kind stringer broke: %q", EventKind(99).String())
	}
}
