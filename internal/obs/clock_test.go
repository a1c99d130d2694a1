package obs

import (
	"math"
	"sync"
	"testing"
)

// pingSample builds the four NTP-style timestamps of one heartbeat echo
// for a worker whose clock reads master+offset, with symmetric one-way
// delay `wire` and worker-side processing time `proc` (all nanoseconds,
// master clock for t0/t3).
func pingSample(sendAt, offset, wire, proc int64) (t0, t1, t2, t3 int64) {
	t0 = sendAt
	t1 = sendAt + wire + offset // arrival, worker clock
	t2 = t1 + proc              // pong departure, worker clock
	t3 = sendAt + wire + proc + wire
	return
}

// TestClockSyncRecoversOffset pins the estimator on the textbook case:
// with symmetric delays the 4-timestamp formula recovers the planted
// offset exactly, and RTT excludes the worker's processing time.
func TestClockSyncRecoversOffset(t *testing.T) {
	cs := newClockSync(2)
	const offset = 3_000_000 // worker runs 3ms ahead
	t0, t1, t2, t3 := pingSample(1_000_000, offset, 250_000, 40_000)
	cs.Sample(1, t0, t1, t2, t3)

	if got := cs.Offset(1); got != offset {
		t.Fatalf("Offset = %d, want %d", got, offset)
	}
	if got := cs.rTT(1); got != 500_000 {
		t.Fatalf("RTT = %d, want 500000 (processing time must be excluded)", got)
	}
	if cs.Samples(1) != 1 {
		t.Fatalf("Samples = %d, want 1", cs.Samples(1))
	}
	// Worker 0 never sampled: identity offset, zero everything.
	if cs.Offset(0) != 0 || cs.rTT(0) != 0 || cs.Samples(0) != 0 {
		t.Fatal("unsampled worker is not at the identity estimate")
	}
}

// TestClockSyncNegativeOffset covers a worker whose clock runs behind the
// master.
func TestClockSyncNegativeOffset(t *testing.T) {
	cs := newClockSync(1)
	t0, t1, t2, t3 := pingSample(5_000_000, -2_000_000, 100_000, 10_000)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.Offset(0); got != -2_000_000 {
		t.Fatalf("Offset = %d, want -2000000", got)
	}
}

// TestClockSyncEWMAConverges feeds a drifting sequence of samples and
// checks the EWMA tracks toward the new offset without jumping to it.
func TestClockSyncEWMAConverges(t *testing.T) {
	cs := newClockSync(1)
	t0, t1, t2, t3 := pingSample(0, 1_000_000, 200_000, 10_000)
	cs.Sample(0, t0, t1, t2, t3)
	first := cs.Offset(0)
	if first != 1_000_000 {
		t.Fatalf("first sample should initialize exactly, got %d", first)
	}
	// The clock steps to 2ms; the estimate must move monotonically toward
	// it and land within 10% after enough samples.
	prev := first
	for i := 0; i < 60; i++ {
		t0, t1, t2, t3 := pingSample(int64(i+1)*10_000_000, 2_000_000, 200_000, 10_000)
		cs.Sample(0, t0, t1, t2, t3)
		cur := cs.Offset(0)
		if cur < prev {
			t.Fatalf("sample %d: estimate moved away from the target (%d -> %d)", i, prev, cur)
		}
		prev = cur
	}
	if math.Abs(float64(cs.Offset(0))-2_000_000) > 200_000 {
		t.Fatalf("after 60 samples Offset = %d, want within 10%% of 2000000", cs.Offset(0))
	}
}

// TestClockSyncErrorBound pins the bound's two ingredients: half the RTT
// (the asymmetry ambiguity) plus the observed offset jitter.
func TestClockSyncErrorBound(t *testing.T) {
	cs := newClockSync(1)
	t0, t1, t2, t3 := pingSample(0, 1_000_000, 300_000, 0)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.ErrorBound(0); got != 300_000 {
		t.Fatalf("single-sample ErrorBound = %d, want rtt/2 = 300000", got)
	}
	// A second sample with a different apparent offset raises the bound by
	// the jitter term.
	t0, t1, t2, t3 = pingSample(10_000_000, 1_400_000, 300_000, 0)
	cs.Sample(0, t0, t1, t2, t3)
	if got := cs.ErrorBound(0); got <= 300_000 {
		t.Fatalf("post-jitter ErrorBound = %d, want > rtt/2", got)
	}
}

// TestClockSyncRejectsGarbage pins the guards: out-of-range workers and
// causality-violating timestamps are dropped without panicking or
// polluting the estimate.
func TestClockSyncRejectsGarbage(t *testing.T) {
	cs := newClockSync(1)
	cs.Sample(-1, 0, 1, 2, 3)
	cs.Sample(5, 0, 1, 2, 3)
	cs.Sample(0, 100, 50, 40, 90) // t2 < t1: worker time ran backwards
	cs.Sample(0, 100, 110, 120, 90)
	if cs.Samples(0) != 0 {
		t.Fatalf("garbage samples were accepted: %d", cs.Samples(0))
	}
	var nilCS *ClockSync
	nilCS.Sample(0, 0, 1, 2, 3)
	if nilCS.Offset(0) != 0 || nilCS.rTT(0) != 0 || nilCS.ErrorBound(0) != 0 || nilCS.Samples(0) != 0 {
		t.Fatal("nil ClockSync is not inert")
	}
}

// TestClockSyncConcurrent hammers Sample and the getters from multiple
// goroutines — meaningful under -race.
func TestClockSyncConcurrent(t *testing.T) {
	cs := newClockSync(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				t0, t1, t2, t3 := pingSample(int64(i)*1_000_000, int64(w)*100_000, 50_000, 5_000)
				cs.Sample(w, t0, t1, t2, t3)
				_ = cs.Offset(w)
				_ = cs.ErrorBound(w)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		if got := cs.Offset(w); got != int64(w)*100_000 {
			t.Fatalf("worker %d Offset = %d, want %d", w, got, int64(w)*100_000)
		}
	}
}

// TestClockSyncSkipsHeldUpPing: one ping held up ≈2 ms on its return leg,
// among 48 ordinary ones (RTT ≈ 40 µs, a few µs of jitter), leaves θ and
// the smoothed RTT within a few µs of the run without it. Folded in, it
// would move θ by ≈125 µs and the RTT by ≈250 µs, and seven samples later
// still leave them ≈50 and ≈100 µs off.
func TestClockSyncSkipsHeldUpPing(t *testing.T) {
	const offset = 1_500_000
	run := func(heldUp bool) *ClockSync {
		cs := newClockSync(1)
		for i := 0; i < 48; i++ {
			at := int64(i) * 10_000_000
			t0, t1, t2, t3 := pingSample(at, offset, 20_000+int64(i%5)*500, 5_000)
			cs.Sample(0, t0, t1, t2, t3)
			if heldUp && i == 40 {
				t0, t1, t2, t3 := pingSample(at+5_000_000, offset, 20_000, 5_000)
				cs.Sample(0, t0, t1, t2, t3+2_000_000)
			}
		}
		return cs
	}
	clean, gated := run(false), run(true)
	if gated.Samples(0) != clean.Samples(0) {
		t.Errorf("took %d samples, want the clean run's %d: the held-up ping was folded in", gated.Samples(0), clean.Samples(0))
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"offset", gated.Offset(0), clean.Offset(0)},
		{"RTT", gated.rTT(0), clean.rTT(0)},
		{"error bound", gated.ErrorBound(0), clean.ErrorBound(0)},
	} {
		if d := c.got - c.want; d < -5_000 || d > 5_000 {
			t.Errorf("%s = %d ns, the clean run's %d: off by more than 5 µs", c.what, c.got, c.want)
		}
	}
}

// TestClockSyncGateReopens: a path whose RTT grows for good (40 µs →
// 400 µs) is skipped clockReopen times and then followed, so the
// estimator tracks the new path instead of locking it out.
func TestClockSyncGateReopens(t *testing.T) {
	cs := newClockSync(1)
	for i := 0; i < 10; i++ {
		t0, t1, t2, t3 := pingSample(int64(i)*10_000_000, 1_000_000, 20_000, 0)
		cs.Sample(0, t0, t1, t2, t3)
	}
	for i := 10; i < 60; i++ {
		t0, t1, t2, t3 := pingSample(int64(i)*10_000_000, 1_000_000, 200_000, 0)
		cs.Sample(0, t0, t1, t2, t3)
		if i == 10+clockReopen-1 && cs.Samples(0) != 10 {
			t.Fatalf("the first %d slow pings: %d samples taken, want 10", clockReopen, cs.Samples(0))
		}
	}
	if cs.Samples(0) != 60-clockReopen {
		t.Fatalf("took %d samples, want %d: the gate did not reopen for the new path", cs.Samples(0), 60-clockReopen)
	}
	if got := cs.rTT(0); got < 360_000 {
		t.Fatalf("RTT = %d ns after 42 samples of the 400 µs path, want it followed", got)
	}
}
