package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// populatedSource builds a Source with every field live and some traffic
// through each meter, mimicking a master mid-run.
func populatedSource() Source {
	h := NewHandle(Config{Workers: 2, Layers: 2, Experts: 3})
	h.Drift.SetBaseline([][]float64{{0.5, 0.3, 0.2}, {1.0 / 3, 1.0 / 3, 1.0 / 3}})
	h.Drift.SetPredictedComm(0.012)

	h.StartStep(0)
	sp := h.Begin(PhaseForward)
	sp.End()
	ex := h.Begin(PhaseExchange)
	start := h.RoundStart()
	for n := 0; n < 2; n++ {
		h.OnEnqueue(n, 0, n, 5*time.Microsecond)
		h.OnSend(n, 0, n, uint64(n), 2048)
		h.OnReply(n, uint64(n), 1024)
		h.OnCompute(n, 0, n, 1, 40*time.Microsecond)
		h.WorkerRoundDone(n, start)
	}
	h.RoundEnd()
	ex.End()
	h.RecordRouting(0, [][]int{{0, 1, 2, 0}})
	h.RecordRouting(1, [][]int{{2, 2}})
	h.EndStep()

	c := NewCounters([]bool{false, true})
	c.Add(ReplaceChecks, 1)
	c.Add(ReplaceTriggers, 1)
	c.Add(ReplaceMigrations, 1)
	c.Add(ReplaceMoves, 3)
	c.Set(ReplaceLastStep, 7)
	c.Add(ReplaceCostSkips, 1)
	c.Set(ReplaceCooldown, 5)
	c.Set(ReplaceSavingsNanos, 4_000_000)
	c.Set(ReplaceMoveCostNanos, 120_000_000)

	c.AddWorker(TrafficTokensTo, 0, 64)
	c.AddWorker(TrafficBytesTo, 0, 2048)
	c.AddWorker(TrafficTokensFrom, 1, 64)
	c.AddWorker(TrafficBytesFrom, 1, 1024)
	c.Add(HeartbeatsAnswered, 1)
	c.Add(HeartbeatsMissed, 1)
	c.Add(WorkerFailovers, 1)
	c.Add(ExpertsRecovered, 3)
	c.Add(Snapshots, 1)

	return Source{
		Handle:   h,
		Counters: c,
		Alive:    func() []bool { return []bool{true, true} },
	}
}

// timedSample matches the samples whose value depends on the wall clock;
// the golden body keeps their names and labels and masks the value.
var timedSample = regexp.MustCompile(`(?m)^((?:vela_phase_seconds_total|vela_request_latency_seconds|vela_straggler_gap_seconds)[^ ]*|vela_step_comm_seconds\{kind="measured"\}) .*$`)

// TestMetricsMatchGolden holds the whole /metrics body — family names,
// order, # HELP, # TYPE, label sets and every clock-independent value —
// to testdata/metrics.golden, captured from the hand-written writer the
// counter table replaced. The one intended difference is in the fixture,
// not the body: vela_traffic_messages_total now counts frames, so the
// fixture records two per worker where the old meter counted one per
// AddToWorker/AddFromWorker call.
func TestMetricsMatchGolden(t *testing.T) {
	src := populatedSource()
	src.Handle.Clocks.Sample(1, 1_000_000, 1_300_000, 1_340_000, 1_600_000)
	src.Rejoining = func() int { return 1 }
	c := src.Counters
	for gen, size := int64(3), int64(4096); gen <= 4; gen, size = gen+1, size*2 {
		c.Add(CkptWrites, 1)
		c.Set(CkptGeneration, gen)
		c.Set(CkptLastBytes, size)
		c.Set(CkptLastWriteNanos, (gen-2)*250_000_000)
		c.Add(CkptTotalWriteNanos, (gen-2)*250_000_000)
	}
	c.Add(CkptSkips, 1)
	c.Add(CkptFailures, 1)
	c.Set(CkptResumeGeneration, 2)
	c.Set(CkptResumeNanos, 1_500_000_000)
	c.AddWorker(TrafficTokensTo, 1, 32)
	c.AddWorker(TrafficBytesTo, 1, 1024)
	c.AddWorker(TrafficTokensFrom, 0, 16)
	c.AddWorker(TrafficBytesFrom, 0, 512)
	c.AddWorker(TrafficFrames, 0, 2)
	c.AddWorker(TrafficFrames, 1, 2)
	c.Add(RecvTimeouts, 2)
	c.Add(RecvRetries, 1)
	c.Add(StaleReplies, 1)
	c.Add(DuplicateReplies, 1)
	c.Add(StepRetries, 1)
	c.Add(WorkerRejoins, 1)
	c.Add(BaseKeyed, 14)
	c.Add(BaseFull, 3)
	c.Add(BaseMisses, 2)

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, src); err != nil {
		t.Fatal(err)
	}
	got := timedSample.ReplaceAll(buf.Bytes(), []byte("$1 <timed>"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics differs from testdata/metrics.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics has %d lines, golden %d", len(gl), len(wl))
	}
}

// promSampleRe matches one exposition sample line:
// name{labels} value  |  name value
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// TestMetricsEndpointIsValidPrometheusText scrapes /metrics off the real
// mux and validates the exposition line by line: every non-comment line
// is a well-formed sample, every sample's family was declared by a
// preceding # TYPE, histogram buckets are cumulative and end at +Inf
// with _count equal to the +Inf bucket.
func TestMetricsEndpointIsValidPrometheusText(t *testing.T) {
	srv := httptest.NewServer(newMux(populatedSource()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}

	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> type
	samples := map[string][]promSample{}
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i+1, line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid exposition sample: %q", i+1, line)
		}
		name := m[1]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE for family %q", i+1, name, family)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, m[3], err)
		}
		samples[name] = append(samples[name], promSample{labels: m[2], value: v})
	}

	// The acceptance-criteria families must all be present.
	for _, fam := range []string{
		"vela_request_latency_seconds", "vela_worker_compute_seconds",
		"vela_queue_wait_seconds", "vela_straggler_gap_seconds", "vela_frame_bytes",
	} {
		if typed[fam] != "histogram" {
			t.Fatalf("family %s: TYPE %q, want histogram", fam, typed[fam])
		}
		if len(samples[fam+"_bucket"]) == 0 {
			t.Fatalf("family %s has no _bucket samples", fam)
		}
	}
	for _, fam := range []string{
		"vela_traffic_bytes_total", "vela_recovery_heartbeats_total",
		"vela_recovery_worker_failovers_total", "vela_steps_total",
		"vela_replace_checks_total", "vela_replace_triggers_total",
		"vela_replace_migrations_total", "vela_replace_moves_total",
		"vela_replace_cost_skips_total",
	} {
		if typed[fam] != "counter" {
			t.Fatalf("family %s: TYPE %q, want counter", fam, typed[fam])
		}
	}
	for _, fam := range []string{
		"vela_p_drift_l1", "vela_p_drift_max_l1", "vela_step_comm_seconds", "vela_worker_alive",
		"vela_replace_cooldown_steps", "vela_replace_last_migration_step", "vela_replace_decision_seconds",
	} {
		if typed[fam] != "gauge" {
			t.Fatalf("family %s: TYPE %q, want gauge", fam, typed[fam])
		}
	}

	// Per-worker labels on the latency histograms.
	seenWorkers := map[string]bool{}
	for _, s := range samples["vela_request_latency_seconds_count"] {
		seenWorkers[s.labels] = true
	}
	if !seenWorkers[`{worker="0"}`] || !seenWorkers[`{worker="1"}`] {
		t.Fatalf("request latency _count labels = %v, want workers 0 and 1", seenWorkers)
	}

	// Per-layer drift gauges with one value per layer.
	if n := len(samples["vela_p_drift_l1"]); n != 2 {
		t.Fatalf("vela_p_drift_l1 has %d samples, want 2 (one per layer)", n)
	}

	// Histogram contract: buckets cumulative (non-decreasing), final
	// bucket is +Inf, and _count matches it. Group buckets by label set
	// minus the le label.
	buckets := map[string][]promSample{}
	for _, s := range samples["vela_request_latency_seconds_bucket"] {
		key := stripLe(s.labels)
		buckets[key] = append(buckets[key], s)
	}
	for key, bs := range buckets {
		var prev float64
		for i, b := range bs {
			if b.value < prev {
				t.Fatalf("series %s: bucket %d not cumulative (%v < %v)", key, i, b.value, prev)
			}
			prev = b.value
		}
		if !strings.Contains(bs[len(bs)-1].labels, `le="+Inf"`) {
			t.Fatalf("series %s: last bucket is not +Inf: %s", key, bs[len(bs)-1].labels)
		}
		var count float64
		for _, s := range samples["vela_request_latency_seconds_count"] {
			if s.labels == key {
				count = s.value
			}
		}
		if inf := bs[len(bs)-1].value; !almostEq(inf, count) {
			t.Fatalf("series %s: +Inf bucket %v != _count %v", key, inf, count)
		}
	}

	// One reply per worker landed in the latency histogram.
	var latTotal float64
	for _, s := range samples["vela_request_latency_seconds_count"] {
		latTotal += s.value
	}
	if !almostEq(latTotal, 2) {
		t.Fatalf("total request-latency observations = %v, want 2", latTotal)
	}
}

type promSample struct {
	labels string
	value  float64
}

// stripLe removes the le="..." pair from a label string so buckets of
// one series group together.
func stripLe(labels string) string {
	i := strings.Index(labels, "le=")
	if i < 0 {
		return labels
	}
	j := strings.Index(labels[i:], `"`)
	k := strings.Index(labels[i+j+1:], `"`)
	cut := labels[i : i+j+k+2]
	out := strings.Replace(labels, cut, "", 1)
	out = strings.ReplaceAll(out, `,}`, `}`)
	out = strings.ReplaceAll(out, `{,`, `{`)
	if out == "{}" {
		return ""
	}
	return out
}

// almostEq sidesteps exact float compares on parsed exposition values.
func almostEq(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestHealthzReflectsLiveness pins /healthz: 200 with all workers up,
// 503 once the supervisor sees a death.
func TestHealthzReflectsLiveness(t *testing.T) {
	alive := []bool{true, true}
	src := Source{Alive: func() []bool { return alive }}
	srv := httptest.NewServer(newMux(src))
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get()
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"alive":2`) {
		t.Fatalf("healthy: code=%d body=%s", code, body)
	}
	alive[1] = false
	code, body = get()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, `"alive":1`) {
		t.Fatalf("degraded: code=%d body=%s", code, body)
	}
}

// TestHealthzReportsRejoining pins the rejoin-aware health status: a
// down worker with a parked rejoin connection reports "rejoining" (still
// 503 — the pool is short-handed) with the count in the payload.
func TestHealthzReportsRejoining(t *testing.T) {
	alive := []bool{true, false}
	rejoining := 1
	src := Source{
		Alive:     func() []bool { return alive },
		Rejoining: func() int { return rejoining },
	}
	srv := httptest.NewServer(newMux(src))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(b), `"status":"rejoining"`) ||
		!strings.Contains(string(b), `"rejoining":1`) {
		t.Fatalf("rejoining healthz: code=%d body=%s", resp.StatusCode, b)
	}

	// Once re-admitted everything is green again and the count is zero.
	alive[1] = true
	rejoining = 0
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b, err = io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(b), `"rejoining":0`) {
		t.Fatalf("recovered healthz: code=%d body=%s", resp2.StatusCode, b)
	}
}

// TestTraceEndpointServesJSONL pins /trace: the worker-side pull path the
// master's MsgTraceFetch complements — every retained ring event comes
// back as one JSON line.
func TestTraceEndpointServesJSONL(t *testing.T) {
	h := NewHandle(Config{Workers: 1})
	h.OnWorkerRecv(0, 2, 3, 7, 100, 4096)
	h.OnWorkerQueue(0, 2, 3, 7, 5*time.Microsecond)
	h.OnCompute(0, 2, 3, 7, 40*time.Microsecond)
	h.OnWorkerReply(0, 2, 3, 7, 9*time.Microsecond, 2048)
	srv := httptest.NewServer(newMux(Source{Handle: h}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d trace lines, want 4:\n%s", len(lines), raw)
	}
	for _, kind := range []string{"wk_recv", "wk_queue", "compute", "wk_reply"} {
		if !strings.Contains(string(raw), `"kind":"`+kind+`"`) {
			t.Fatalf("trace output missing kind %q:\n%s", kind, raw)
		}
	}

	// No handle: the endpoint answers empty instead of panicking.
	srv2 := httptest.NewServer(newMux(Source{}))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if b, _ := io.ReadAll(resp2.Body); len(b) != 0 {
		t.Fatalf("handle-less /trace returned %q, want empty", b)
	}
}

// TestMetricsExposeClockGauges pins the clock-alignment exposition: once
// a worker has a ping sample, its offset/rtt/error-bound gauges appear.
func TestMetricsExposeClockGauges(t *testing.T) {
	src := populatedSource()
	src.Handle.Clocks.Sample(1, 1_000_000, 1_300_000, 1_340_000, 1_600_000)
	srv := httptest.NewServer(newMux(src))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE vela_trace_clock_offset_ns gauge",
		`vela_trace_clock_offset_ns{worker="1"}`,
		`vela_trace_clock_rtt_ns{worker="1"}`,
		`vela_trace_clock_error_bound_ns{worker="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	// The never-sampled worker 0 must not fabricate an estimate.
	if strings.Contains(body, `vela_trace_clock_offset_ns{worker="0"}`) {
		t.Fatal("unsampled worker got a clock gauge")
	}
}

// TestPprofEndpointPresent pins that the profiling handlers are mounted.
func TestPprofEndpointPresent(t *testing.T) {
	srv := httptest.NewServer(newMux(Source{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
}

// TestServeBindsAndCloses exercises the real listener path the cmds use.
func TestServeBindsAndCloses(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Source{Handle: NewHandle(Config{})})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics via Serve: %s", resp.Status)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatal("nil server Close errored")
	}
}
