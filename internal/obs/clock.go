package obs

import "sync"

// clockAlpha is the EWMA coefficient of the offset/RTT estimators. Small
// enough to smooth scheduler noise on individual pings, large enough to
// track real drift across a heartbeat cadence of seconds.
const clockAlpha = 0.125

// clockGate and clockReopen gate samples on their round trip. A ping
// whose RTT exceeds clockGate times the smallest seen for its worker was
// held up on one leg — a preempted goroutine, a queued frame — and its θ
// is off by up to half the delay, so it is skipped. The first sample is
// always taken. After clockReopen skips in a row the next sample is taken
// and its RTT becomes the smallest seen, so a lasting change of path is
// followed instead of locked out.
const (
	clockGate   = 4
	clockReopen = 8
)

// clockState is one worker's smoothed clock relation to the master.
type clockState struct {
	samples  uint64
	skipped  int     // samples skipped by the RTT gate since the last taken
	minRTTNs float64 // smallest RTT seen since the gate last reopened
	offsetNs float64 // EWMA of θ: worker_clock = master_clock + θ
	rttNs    float64 // EWMA of the ping round trip
	jitterNs float64 // EWMA of |θ_sample − θ_estimate|
}

// ClockSync estimates each worker's clock offset and round-trip time
// from NTP-style 4-timestamp ping exchanges, so worker-side trace
// events can be rebased onto the master timebase.
//
// Convention: a worker timestamp tW corresponds to master time tW −
// Offset(n). Each sample carries (t0, t1, t2, t3) = master send, worker
// receive, worker send, master receive; the offset estimate is
// θ = ((t1−t0)+(t2−t3))/2 and the RTT is (t3−t0)−(t2−t1). The error of
// a single sample is bounded by rtt/2 (the asymmetric-path worst case),
// so ErrorBound reports rtt/2 plus the observed offset jitter.
//
// All methods are safe for concurrent use and nil-receiver-safe. Sample
// runs on the heartbeat path (per ping, not per request), so a mutex
// and float math are fine here.
type ClockSync struct {
	mu      sync.Mutex
	workers []clockState
}

// newClockSync builds an estimator for `workers` workers.
func newClockSync(workers int) *ClockSync {
	if workers < 0 {
		workers = 0
	}
	return &ClockSync{workers: make([]clockState, workers)}
}

// Sample folds one 4-timestamp exchange for worker n into the EWMA
// estimates. Timestamps are nanoseconds: t0/t3 on the master clock,
// t1/t2 on the worker clock. Out-of-range workers and non-causal
// samples (t3 < t0 or t2 < t1) are dropped, and so is a sample the RTT
// gate skips (clockGate).
func (c *ClockSync) Sample(n int, t0, t1, t2, t3 int64) {
	if c == nil || n < 0 || n >= len(c.workers) || t3 < t0 || t2 < t1 {
		return
	}
	theta := (float64(t1-t0) + float64(t2-t3)) / 2
	rtt := float64(t3-t0) - float64(t2-t1)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.workers[n]
	switch {
	case st.samples > 0 && rtt > clockGate*st.minRTTNs && st.skipped < clockReopen:
		st.skipped++
		return
	case st.samples == 0 || st.skipped == clockReopen:
		st.minRTTNs = rtt
	default:
		st.minRTTNs = min(st.minRTTNs, rtt)
	}
	st.skipped = 0
	if st.samples == 0 {
		st.offsetNs, st.rttNs, st.jitterNs = theta, rtt, 0
	} else {
		dev := theta - st.offsetNs
		if dev < 0 {
			dev = -dev
		}
		st.jitterNs += clockAlpha * (dev - st.jitterNs)
		st.offsetNs += clockAlpha * (theta - st.offsetNs)
		st.rttNs += clockAlpha * (rtt - st.rttNs)
	}
	st.samples++
}

// Offset returns worker n's smoothed clock offset θ in nanoseconds
// (worker_clock = master_clock + θ). Zero before the first sample — the
// correct identity for an in-process worker sharing the master's clock.
func (c *ClockSync) Offset(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return int64(c.workers[n].offsetNs)
}

// rTT returns worker n's smoothed ping round trip in nanoseconds.
func (c *ClockSync) rTT(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return int64(c.workers[n].rttNs)
}

// Samples returns how many exchanges worker n has contributed.
func (c *ClockSync) Samples(n int) uint64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	return c.workers[n].samples
}

// ErrorBound returns the estimated worst-case rebasing error for worker
// n's events in nanoseconds: half the smoothed RTT (the asymmetric-path
// bound of one NTP sample) plus the observed offset jitter. Zero before
// the first sample (shared-clock deployments rebase exactly).
func (c *ClockSync) ErrorBound(n int) int64 {
	if c == nil || n < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= len(c.workers) {
		return 0
	}
	st := &c.workers[n]
	return int64(st.rttNs/2 + st.jitterNs)
}
