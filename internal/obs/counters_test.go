package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCountersTable runs the behaviours the four retired counter blocks
// (traffic, recovery, re-placement and checkpoint, each with a test file
// of its own) pinned separately, as rows against the one table.
func TestCountersTable(t *testing.T) {
	fresh := func() *Counters { return NewCounters([]bool{false, true}) }
	cases := []struct {
		name string
		c    *Counters
		do   func(c *Counters)
		want map[Counter]int64
	}{
		{"fresh table reads initial values", fresh(), func(*Counters) {},
			map[Counter]int64{ReplaceLastStep: -1, ReplaceChecks: 0, TrafficBytesTo: 0, WorkerFailovers: 0}},
		{"nil table discards writes and reads initial values", nil, func(c *Counters) {
			c.Add(RecvTimeouts, 1)
			c.AddWorker(TrafficBytesTo, 1, 100)
			c.Set(ReplaceCooldown, 3)
			c.Set(ReplaceLastStep, 9)
		}, map[Counter]int64{RecvTimeouts: 0, TrafficBytesTo: 0, ReplaceCooldown: 0, ReplaceLastStep: -1}},
		{"traffic rows are per worker and Get sums them", fresh(), func(c *Counters) {
			c.AddWorker(TrafficBytesTo, 0, 100)
			c.AddWorker(TrafficBytesFrom, 0, 100)
			c.AddWorker(TrafficBytesTo, 1, 50)
			c.AddWorker(TrafficTokensTo, 1, 5)
			c.AddWorker(TrafficFrames, 0, 2)
		}, map[Counter]int64{TrafficBytesTo: 150, TrafficBytesFrom: 100, TrafficTokensTo: 5, TrafficFrames: 2}},
		{"a worker outside the cross-node mask is dropped", fresh(), func(c *Counters) {
			c.AddWorker(TrafficBytesTo, 2, 7)
			c.AddWorker(TrafficBytesTo, -1, 7)
		}, map[Counter]int64{TrafficBytesTo: 0}},
		{"recovery counters accumulate", fresh(), func(c *Counters) {
			c.Add(HeartbeatsAnswered, 1)
			c.Add(HeartbeatsMissed, 1)
			c.Add(RecvTimeouts, 1)
			c.Add(RecvRetries, 1)
			c.Add(StaleReplies, 1)
			c.Add(DuplicateReplies, 2)
			c.Add(StepRetries, 1)
			c.Add(WorkerFailovers, 1)
			c.Add(ExpertsRecovered, 3)
			c.Add(Snapshots, 1)
			c.Add(WorkerRejoins, 1)
		}, map[Counter]int64{
			HeartbeatsAnswered: 1, HeartbeatsMissed: 1, RecvTimeouts: 1, RecvRetries: 1,
			StaleReplies: 1, DuplicateReplies: 2, StepRetries: 1, WorkerFailovers: 1,
			ExpertsRecovered: 3, Snapshots: 1, WorkerRejoins: 1,
		}},
		{"replace counters add, gauges overwrite", fresh(), func(c *Counters) {
			c.Add(ReplaceChecks, 2)
			c.Add(ReplaceTriggers, 1)
			c.Add(ReplaceMigrations, 1)
			c.Add(ReplaceMoves, 4)
			c.Add(ReplaceCostSkips, 1)
			c.Set(ReplaceCooldown, 9)
			c.Set(ReplaceCooldown, 8)
			c.Set(ReplaceLastStep, 12)
			c.Set(ReplaceSavingsNanos, 3_000_000)
			c.Set(ReplaceMoveCostNanos, 250_000_000)
		}, map[Counter]int64{
			ReplaceChecks: 2, ReplaceTriggers: 1, ReplaceMigrations: 1, ReplaceMoves: 4, ReplaceCostSkips: 1,
			ReplaceCooldown: 8, ReplaceLastStep: 12, ReplaceSavingsNanos: 3_000_000, ReplaceMoveCostNanos: 250_000_000,
		}},
		{"checkpoint totals accumulate beside latest-value gauges", fresh(), func(c *Counters) {
			for gen := int64(3); gen <= 4; gen++ {
				c.Add(CkptWrites, 1)
				c.Add(CkptTotalWriteNanos, 375)
				c.Set(CkptGeneration, gen)
			}
			c.Add(CkptSkips, 1)
			c.Add(CkptFailures, 1)
			c.Set(CkptResumeNanos, 1500)
			c.Set(CkptResumeGeneration, 2)
		}, map[Counter]int64{
			CkptWrites: 2, CkptTotalWriteNanos: 750, CkptGeneration: 4, CkptSkips: 1, CkptFailures: 1,
			CkptResumeNanos: 1500, CkptResumeGeneration: 2,
		}},
	}
	for _, tc := range cases {
		tc.do(tc.c)
		for k, want := range tc.want {
			if got := tc.c.Get(k); got != want {
				t.Errorf("%s: Get(%s) = %d, want %d", tc.name, table[k].family+table[k].labels, got, want)
			}
		}
	}
}

// TestCountersCrossNodeBytes: the mask given at construction selects the
// workers whose bytes are external traffic, and is copied.
func TestCountersCrossNodeBytes(t *testing.T) {
	mask := []bool{false, true}
	c := NewCounters(mask)
	mask[0] = true
	c.AddWorker(TrafficBytesTo, 0, 100)
	c.AddWorker(TrafficBytesFrom, 0, 100)
	c.AddWorker(TrafficBytesTo, 1, 50)
	c.AddWorker(TrafficBytesFrom, 1, 20)
	if got := c.CrossNodeBytes(); got != 70 {
		t.Fatalf("CrossNodeBytes = %d, want 70", got)
	}
	if got := c.Worker(TrafficBytesTo, 0); got != 100 {
		t.Fatalf("Worker(TrafficBytesTo, 0) = %d, want 100", got)
	}
	var nilC *Counters
	if nilC.CrossNodeBytes() != 0 || nilC.Worker(TrafficBytesTo, 0) != 0 {
		t.Fatal("nil table must read as zero")
	}
	var report bytes.Buffer
	if err := WriteReport(&report, Source{}); err != nil || report.Len() != 0 {
		t.Fatalf("empty source reported %q (err %v), want nothing", report.String(), err)
	}
}

// TestCountersConcurrentAdds: the table is written from a round's
// per-worker goroutines, the heartbeat loop, the checkpoint writer and
// the trainer at once while scrapes read; no update may be lost (run
// under -race).
func TestCountersConcurrentAdds(t *testing.T) {
	c := NewCounters(make([]bool, 4))
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(RecvTimeouts, 1)
				c.AddWorker(TrafficBytesTo, w%4, 1)
				c.AddWorker(TrafficBytesFrom, w%4, 1)
				c.Set(ReplaceCooldown, int64(i))
				_ = c.Get(TrafficBytesTo)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Get(RecvTimeouts); got != workers*per {
		t.Fatalf("RecvTimeouts = %d, want %d", got, workers*per)
	}
	if got := c.Get(TrafficBytesTo) + c.Get(TrafficBytesFrom); got != 2*workers*per {
		t.Fatalf("total bytes = %d, want %d", got, 2*workers*per)
	}
}

// TestCountersIdleRule pins the table's one rule for idle subsystems in
// both writers: a group appears once one of its rows has moved.
func TestCountersIdleRule(t *testing.T) {
	c := NewCounters([]bool{false, true})
	write := func() (prom, report string) {
		var p, r bytes.Buffer
		if err := WriteMetrics(&p, Source{Counters: c}); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&r, Source{Counters: c}); err != nil {
			t.Fatal(err)
		}
		return p.String(), r.String()
	}
	if prom, report := write(); prom != "" || report != "" {
		t.Fatalf("idle table wrote %q / %q, want nothing", prom, report)
	}
	c.Add(Snapshots, 1)
	prom, report := write()
	if !strings.Contains(prom, "vela_recovery_snapshots_total 1\n") || !strings.Contains(prom, "vela_recovery_worker_failovers_total 0\n") {
		t.Fatalf("active recovery group must export all its rows:\n%s", prom)
	}
	if strings.Contains(prom, "vela_traffic") || strings.Contains(prom, "vela_replace") || strings.Contains(prom, "vela_ckpt") {
		t.Fatalf("idle groups exported:\n%s", prom)
	}
	if !strings.HasPrefix(report, "recovery: heartbeats answered 0, ") || strings.Count(report, "\n") != 1 {
		t.Fatalf("report = %q, want the one recovery line", report)
	}
	c.AddWorker(TrafficBytesTo, 1, 2_500_000)
	if _, report = write(); !strings.Contains(report, "traffic: bytes out 2500000, ") || !strings.Contains(report, ", cross-node MB 2.50\n") {
		t.Fatalf("report = %q, want a traffic line with the cross-node share", report)
	}
}

// TestNanos pins the seconds→table-unit conversion: nearest nanosecond
// (0.004 s must not truncate to 3999999) and saturation at the ends.
func TestNanos(t *testing.T) {
	for _, tc := range []struct {
		sec  float64
		want int64
	}{
		{0.004, 4_000_000}, {0.12, 120_000_000}, {-1.5, -1_500_000_000}, {0, 0},
		{math.Inf(1), math.MaxInt64}, {math.Inf(-1), math.MinInt64}, {1e300, math.MaxInt64},
	} {
		if got := Nanos(tc.sec); got != tc.want {
			t.Errorf("Nanos(%v) = %d, want %d", tc.sec, got, tc.want)
		}
	}
}
