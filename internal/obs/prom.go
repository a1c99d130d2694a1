package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Source bundles everything a scrape or an exit report exports. Any field
// may be nil (or, for Alive, absent): the corresponding metric families
// are simply omitted.
type Source struct {
	Handle *Handle
	// Counters is the runtime counter table: every vela_traffic_*,
	// vela_recovery_*, vela_replace_* and vela_ckpt_* family.
	Counters *Counters
	// Alive reports per-worker liveness (the Supervisor's view via
	// Executor.DeadMask, inverted). Feeds vela_worker_alive and /healthz.
	Alive func() []bool
	// Rejoining reports how many redialed workers are parked awaiting
	// step-boundary re-admission (Supervisor.PendingRejoins). Feeds the
	// /healthz "rejoining" count and vela_workers_rejoining, so
	// operators can tell "down" from "coming back".
	Rejoining func() int
}

// WriteMetrics writes the full metric catalogue in Prometheus text
// exposition format (one HELP/TYPE header per family, cumulative
// histogram buckets with le labels).
func WriteMetrics(w io.Writer, s Source) error {
	pw := &promWriter{w: w}
	h := s.Handle
	if h != nil {
		pw.header("vela_steps_total", "counter", "Completed training steps.")
		pw.sample("vela_steps_total", "", float64(h.Steps()))
		pw.header("vela_trace_events_total", "counter", "Trace events recorded since start.")
		pw.sample("vela_trace_events_total", "", float64(h.Trace.total()))
		pw.header("vela_trace_events_dropped_total", "counter", "Trace events overwritten by ring wraparound.")
		pw.sample("vela_trace_events_dropped_total", "", float64(h.Trace.Dropped()))

		pw.header("vela_phase_seconds_total", "counter", "Cumulative seconds per step phase.")
		for _, st := range h.Breakdown() {
			pw.sample("vela_phase_seconds_total", `phase="`+st.Phase.String()+`"`, st.TotalSec)
		}
		pw.header("vela_phase_spans_total", "counter", "Completed spans per step phase.")
		for _, st := range h.Breakdown() {
			pw.sample("vela_phase_spans_total", `phase="`+st.Phase.String()+`"`, float64(st.Count))
		}

		pw.histogram("vela_queue_wait_seconds", "Time requests waited for an in-flight window slot.", "", h.QueueWait.snapshot())
		for n := range h.ReqLatency {
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_request_latency_seconds", "Send-to-reply latency per worker.", lbl, h.ReqLatency[n].snapshot())
		}
		for n := range h.Compute {
			if h.Compute[n].Count() == 0 {
				continue
			}
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_worker_compute_seconds", "Expert compute time per worker.", lbl, h.Compute[n].snapshot())
		}
		for n := range h.StragglerGap {
			lbl := `worker="` + strconv.Itoa(n) + `"`
			pw.histogram("vela_straggler_gap_seconds", "Slowest-worker-minus-this-worker gap per exchange round.", lbl, h.StragglerGap[n].snapshot())
		}
		pw.histogram("vela_frame_bytes", "Encoded frame sizes.", `dir="tx"`, h.FrameTx.snapshot())
		pw.histogram("vela_frame_bytes", "", `dir="rx"`, h.FrameRx.snapshot())

		if c := h.Clocks; c != nil {
			sampled := false
			for n := 0; n < h.workers(); n++ {
				if c.Samples(n) > 0 {
					sampled = true
					break
				}
			}
			// Only workers with at least one echo get series: exporting the
			// identity estimate for a never-sampled worker would read as a
			// measured zero offset.
			if sampled {
				pw.header("vela_trace_clock_offset_ns", "gauge", "EWMA clock offset of each worker vs the master (worker = master + offset).")
				for n := 0; n < h.workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_offset_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.Offset(n)))
					}
				}
				pw.header("vela_trace_clock_rtt_ns", "gauge", "EWMA ping round-trip time per worker (clock-sync exchange).")
				for n := 0; n < h.workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_rtt_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.rTT(n)))
					}
				}
				pw.header("vela_trace_clock_error_bound_ns", "gauge", "Worst-case rebasing error of worker trace events (rtt/2 + offset jitter).")
				for n := 0; n < h.workers(); n++ {
					if c.Samples(n) > 0 {
						pw.sample("vela_trace_clock_error_bound_ns", `worker="`+strconv.Itoa(n)+`"`, float64(c.ErrorBound(n)))
					}
				}
			}
		}

		if drift := h.Drift.Drift(); drift != nil {
			pw.header("vela_p_drift_l1", "gauge", "Per-layer L1 distance between EWMA routing estimate and placement-time P.")
			for l, v := range drift {
				pw.sample("vela_p_drift_l1", `layer="`+strconv.Itoa(l)+`"`, v)
			}
			pw.header("vela_p_drift_max_l1", "gauge", "Largest per-layer P drift (placement staleness signal).")
			pw.sample("vela_p_drift_max_l1", "", h.Drift.MaxDrift())
		}
		if pred, meas := h.Drift.CommGauges(); pred > 0 || meas > 0 {
			pw.header("vela_step_comm_seconds", "gauge", "Per-step expert-exchange communication time: placement objective prediction vs EWMA of measurement.")
			pw.sample("vela_step_comm_seconds", `kind="predicted"`, pred)
			pw.sample("vela_step_comm_seconds", `kind="measured"`, meas)
		}
	}

	s.Counters.writeProm(pw)

	if s.Alive != nil {
		alive := s.Alive()
		pw.header("vela_worker_alive", "gauge", "Per-worker liveness from the supervisor's view (1=alive).")
		up := 0
		for n, ok := range alive {
			v := 0.0
			if ok {
				v = 1
				up++
			}
			pw.sample("vela_worker_alive", `worker="`+strconv.Itoa(n)+`"`, v)
		}
		pw.header("vela_workers_alive", "gauge", "Count of live workers.")
		pw.sample("vela_workers_alive", "", float64(up))
		pw.header("vela_workers_total", "gauge", "Size of the worker pool.")
		pw.sample("vela_workers_total", "", float64(len(alive)))
	}

	if s.Rejoining != nil {
		pw.header("vela_workers_rejoining", "gauge", "Dead workers redialed and parked awaiting step-boundary re-admission.")
		pw.sample("vela_workers_rejoining", "", float64(s.Rejoining()))
	}

	return pw.err
}

// WriteReport prints a run's exit report from the same source a scrape
// reads: the counter table's active groups, then where each step's time
// went and how far routing drifted from the placement-time P. Nil halves
// print nothing.
func WriteReport(w io.Writer, s Source) error {
	pw := &promWriter{w: w}
	s.Counters.writeReport(pw)
	s.Handle.writeBreakdown(pw)
	return pw.err
}

// promWriter emits exposition lines, latching the first write error so
// callers check once. The exit reports print through its printf too.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, typ, help string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatValue(v))
}

// histogram writes one histogram series in Prometheus convention:
// cumulative _bucket samples with le labels (ending at +Inf), then _sum
// and _count. An empty help suppresses the header (for subsequent label
// sets of the same family).
func (p *promWriter) histogram(name, help, labels string, s HistogramSnapshot) {
	if help != "" {
		p.header(name, "histogram", help)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.printf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatValue(b), cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(s.Count))
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
