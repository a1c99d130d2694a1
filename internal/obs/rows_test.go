package obs

import "testing"

// TestEventRowsRoundTrip pins the flat-row codec MsgTraceFetch rides on:
// every Event field survives the float64 encoding exactly.
func TestEventRowsRoundTrip(t *testing.T) {
	evs := []Event{
		{At: 123456789, Dur: 42, Seq: 7, Bytes: 2048, Step: 3, Layer: 1, Expert: 5, Worker: 2, Kind: EvWkRecv},
		{At: 223456789, Dur: 0, Seq: 8, Bytes: 0, Step: 3, Layer: 0, Expert: -1, Worker: 0, Kind: EvWkQueue},
		// At is ns since the tracer epoch (process start), so it stays far
		// below float64's 2^53 exact-integer ceiling; pin a large-but-exact
		// value (about 41 hours of uptime).
		{At: 150_000_000_000_000, Dur: 999, Seq: 1 << 40, Bytes: 1, Step: 0, Layer: 11, Expert: 0, Worker: 5, Kind: EvWkReply},
		{At: 5, Kind: EvSpan, Phase: PhaseExchange, Dur: 77},
	}
	data := EventsToRows(evs)
	if len(data) != len(evs)*EventRowWidth {
		t.Fatalf("encoded length %d, want %d", len(data), len(evs)*EventRowWidth)
	}
	back := EventsFromRows(len(evs), EventRowWidth, data)
	if len(back) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Fatalf("event %d changed in transit:\n got %+v\nwant %+v", i, back[i], evs[i])
		}
	}
}

// TestEventsFromRowsRejectsMalformed pins the decoder's guards: a wrong
// column count or a short payload yields nil, not a panic or a garbage
// partial decode.
func TestEventsFromRowsRejectsMalformed(t *testing.T) {
	good := EventsToRows([]Event{{Seq: 1, Kind: EvWkRecv}})
	if EventsFromRows(1, EventRowWidth-1, good) != nil {
		t.Fatal("wrong width accepted")
	}
	if EventsFromRows(2, EventRowWidth, good) != nil {
		t.Fatal("short payload accepted")
	}
	if EventsFromRows(0, EventRowWidth, nil) != nil {
		t.Fatal("empty decode should be nil")
	}
}

// TestEventsFromRowsCopies pins that the decode copies out of the input
// slice: MsgTraceFetch replies ride pooled frames, so retained events
// must not alias the frame buffer.
func TestEventsFromRowsCopies(t *testing.T) {
	data := EventsToRows([]Event{{At: 10, Seq: 2, Kind: EvWkReply}})
	evs := EventsFromRows(1, EventRowWidth, data)
	for i := range data {
		data[i] = -1 // simulate the pool recycling the frame
	}
	if evs[0].At != 10 || evs[0].Seq != 2 || evs[0].Kind != EvWkReply {
		t.Fatalf("decoded event aliases the wire buffer: %+v", evs[0])
	}
}

// TestSnapshotFromIncremental pins the cursor contract FetchWorkerTrace
// relies on: each call returns only the events recorded since the cursor
// it handed out last time.
func TestSnapshotFromIncremental(t *testing.T) {
	tr := newTracer(64)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvSend, Seq: uint64(i)})
	}
	evs, cur := tr.SnapshotFrom(0)
	if len(evs) != 10 || cur != 10 {
		t.Fatalf("first drain: %d events cursor %d, want 10/10", len(evs), cur)
	}
	if evs[0].Seq != 0 || evs[9].Seq != 9 {
		t.Fatal("first drain not oldest-first")
	}
	// Nothing new: empty, cursor unchanged.
	evs, cur = tr.SnapshotFrom(cur)
	if len(evs) != 0 || cur != 10 {
		t.Fatalf("idle drain: %d events cursor %d, want 0/10", len(evs), cur)
	}
	for i := 10; i < 14; i++ {
		tr.Record(Event{Kind: EvSend, Seq: uint64(i)})
	}
	evs, cur = tr.SnapshotFrom(cur)
	if len(evs) != 4 || cur != 14 || evs[0].Seq != 10 {
		t.Fatalf("second drain: %d events cursor %d first seq %d, want 4/14/10", len(evs), cur, evs[0].Seq)
	}
}

// TestSnapshotFromClampsAfterWrap pins the overwrite semantics: a cursor
// pointing at events the ring already recycled comes back with only the
// retained window, and Dropped tells the caller how much was lost.
func TestSnapshotFromClampsAfterWrap(t *testing.T) {
	tr := newTracer(64)
	for i := 0; i < 200; i++ {
		tr.Record(Event{Kind: EvReply, Seq: uint64(i)})
	}
	evs, cur := tr.SnapshotFrom(0)
	if len(evs) != 64 || cur != 200 {
		t.Fatalf("post-wrap drain: %d events cursor %d, want 64/200", len(evs), cur)
	}
	if evs[0].Seq != 136 {
		t.Fatalf("oldest retained Seq = %d, want 136", evs[0].Seq)
	}
	if tr.Dropped() != 136 {
		t.Fatalf("Dropped = %d, want 136", tr.Dropped())
	}
	// A future cursor (corrupt caller state) returns nothing, not garbage.
	evs, cur = tr.SnapshotFrom(10_000)
	if len(evs) != 0 || cur != 200 {
		t.Fatalf("future cursor: %d events cursor %d, want 0/200", len(evs), cur)
	}
	var nilTr *Tracer
	if evs, cur := nilTr.SnapshotFrom(0); evs != nil || cur != 0 {
		t.Fatal("nil tracer SnapshotFrom is not inert")
	}
}
