package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/placement"
	"repro/internal/wire"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricSpec names a metric of the benchmark and fixes its unit.
type MetricSpec struct{ Name, Unit string }

// EndToEnd lists the metrics a timed run reports, in BENCHMARK.json's
// order. They are what a user of the system sees and carry the regression
// bounds.
var EndToEnd = []MetricSpec{
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"tokens_per_s", "1/s"},
	{"setup_s", "s"},
}

// PerLayer lists the metrics a traced run reports. A metric whose layer a
// workload does not exercise reads 0 there.
var PerLayer = []MetricSpec{
	{"data.next_ms", "ms"},
	{"moe.backbone_ms", "ms"},
	{"moe.local_experts_ms", "ms"},
	{"broker.exchange_ms", "ms"},
	{"broker.exchange_fwd_ms", "ms"},
	{"broker.exchange_bwd_ms", "ms"},
	{"broker.exchange_calls", "count"},
	{"broker.master_self_ms", "ms"},
	{"transport.send_wire_ms", "ms"},
	{"broker.worker_busy_ms", "ms"},
	{"transport.reply_wire_ms", "ms"},
	{"link.shaped_wait_ms", "ms"},
	{"broker.straggler_gap_ms", "ms"},
	{"broker.worker_idle_share", "share"},
	{"broker.expert_opt_ms", "ms"},
	{"nn.backbone_opt_ms", "ms"},
	{"transport.frames_per_step", "count"},
	{"wire_bytes_per_step", "bytes"},
	{"cross_node_bytes_per_step", "bytes"},
	{"placement.predicted_cross_node_bytes", "bytes"},
	{"placement.predicted_comm_ms", "ms"},
	{"placement.solve_ms", "ms"},
	{"trainer.profile_ms", "ms"},
	{"core.distribute_ms", "ms"},
	{"checkpoint.stall_ms", "ms"},
	{"checkpoint.snapshot_ms", "ms"},
	{"checkpoint.run_save_ms", "ms"},
	{"checkpoint.bytes_per_gen", "bytes"},
	{"broker.rebalance_ms", "ms"},
	{"broker.migrate_ms", "ms"},
	{"nn.expert_fwdbwd_ms", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"wire.encode_MBps.fp64", "MB/s"},
	{"wire.encode_MBps.fp16", "MB/s"},
	{"wire.encode_MBps.int8", "MB/s"},
	{"wire.decode_MBps.fp64", "MB/s"},
	{"wire.decode_MBps.fp16", "MB/s"},
	{"wire.decode_MBps.int8", "MB/s"},
	{"process.peak_rss_mb", "MB"},
	{"process.allocs_per_step", "count"},
	{"process.gc_pause_ms_per_step", "ms"},
	{"trace.step_ms_p50", "ms"},
	{"trace.untraced_step_ms_p50", "ms"},
	{"trace.overhead_pct", "%"},
	{"telescope.step_residual_pct", "%"},
	{"telescope.exchange_residual_pct", "%"},
}

// Machine records where a result was measured.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// ThisMachine fills the machine record. The commit comes from the
// STEPBENCH_COMMIT environment variable, which run.sh sets: a benchmark
// checkout need not be a git repository.
func ThisMachine() Machine {
	commit := os.Getenv("STEPBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// RunConfig selects one run of one workload.
type RunConfig struct {
	Seed int64
	// Seconds, when > 0, is how long the timed phase lasts; otherwise it
	// lasts Steps steps (0 selects the mode's default).
	Seconds float64
	Steps   int
	// Trace selects the traced run, which reports the per-layer metrics;
	// a timed run reports the end-to-end ones.
	Trace bool
	// OutDir receives the span dump of a traced run and holds churn's
	// checkpoint store while it runs.
	OutDir string
}

// Result is what one run leaves behind.
type Result struct {
	Machine  Machine `json:"machine"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	// TimedSteps excludes the warm-up; Attempted includes it.
	TimedSteps int `json:"timed_steps"`
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	// Correct is true when no step failed and every check passed.
	Correct bool `json:"correct"`
	// Checks lists the violated output checks.
	Checks  []string          `json:"checks,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
	// Extra holds measured values that are not metrics of this run's mode
	// (a timed run's byte counters).
	Extra  map[string]Metric `json:"extra,omitempty"`
	Losses []float64         `json:"losses"`
	// StepMs is the wall time of every timed Finetuner.Step, in order.
	StepMs []float64 `json:"step_ms"`
}

// Run sets the workload up, drives the timed or traced steps, checks the
// outputs and tears the system down.
func Run(w Workload, cfg RunConfig) (*Result, error) {
	res := &Result{Machine: ThisMachine(), Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Metrics: make(map[string]Metric)}
	opt := Options{Seed: cfg.Seed, Dir: cfg.OutDir}
	reps := SetupReps
	if cfg.Trace {
		opt.Rec = NewRecorder()
		reps = 1 // a traced run does not report setup_s
	}
	var sys *System
	var setups []float64
	for i := 0; i < reps; i++ {
		if sys != nil {
			if err := sys.Close(); err != nil {
				return nil, fmt.Errorf("bench: tearing down set-up %d: %w", i-1, err)
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = Setup(w, opt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.Close()

	steps := cfg.Steps
	if steps <= 0 && cfg.Seconds <= 0 {
		steps = DefaultTimedSteps
		if cfg.Trace {
			steps = DefaultTracedSteps
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	bytes0, cross0, frames0 := sys.Bytes()
	if sys.churn != nil {
		sys.churn.churnTotals = churnTotals{}
	}
	var stepMs, hookMs []float64
	start := time.Now()
	for {
		step, hook, err := sys.Step()
		if err != nil {
			res.Failed++
			res.Checks = append(res.Checks, fmt.Sprintf("step %d failed: %v", sys.FT.Losses.Len(), err))
			break
		}
		stepMs = append(stepMs, float64(step)/nsPerMs)
		hookMs = append(hookMs, float64(hook)/nsPerMs)
		if steps > 0 && len(stepMs) >= steps {
			break
		}
		if steps <= 0 && time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&mem1)
	bytes1, cross1, frames1 := sys.Bytes()
	n := float64(len(stepMs))
	res.TimedSteps = len(stepMs)
	res.StepMs = stepMs
	res.Attempted = WarmupSteps + len(stepMs) + res.Failed
	res.Losses = append([]float64(nil), sys.FT.Losses.Values...)

	perStep := func(total int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / n
	}
	byteMetrics := map[string]Metric{
		"wire_bytes_per_step":       {perStep(bytes1 - bytes0), "bytes"},
		"cross_node_bytes_per_step": {perStep(cross1 - cross0), "bytes"},
		"transport.frames_per_step": {perStep(frames1 - frames0), "count"},
	}
	if !cfg.Trace {
		res.Metrics["step_ms_p50"] = Metric{Median(stepMs), "ms"}
		res.Metrics["step_ms_p90"] = Metric{Percentile(stepMs, 0.9), "ms"}
		res.Metrics["tokens_per_s"] = Metric{n * float64(w.Tokens()) / wall, "1/s"}
		res.Metrics["setup_s"] = Metric{Median(setups), "s"}
		res.Extra = byteMetrics
	} else {
		for k, v := range byteMetrics {
			res.Metrics[k] = v
		}
		sys.layerMetrics(res, stepMs, hookMs, &mem0, &mem1)
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := sys.rec.Dump(filepath.Join(cfg.OutDir, w.Name+".trace.jsonl")); err != nil {
			return nil, fmt.Errorf("bench: writing the span dump: %w", err)
		}
	}

	ref, err := ReferenceLosses(w, cfg.Seed, min(RefSteps, len(res.Losses)))
	if err != nil {
		return nil, err
	}
	if msg := LossCheck(res.Losses, ref); msg != "" {
		res.Checks = append(res.Checks, "loss_check: "+msg)
	}
	if cfg.Trace {
		res.Checks = append(res.Checks, sys.layerChecks(res)...)
	}
	if err := sys.Close(); err != nil {
		res.Checks = append(res.Checks, fmt.Sprintf("teardown: %v", err))
	}
	res.Correct = res.Failed == 0 && len(res.Checks) == 0
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func (s *System) layerMetrics(res *Result, stepMs, hookMs []float64, mem0, mem1 *runtime.MemStats) {
	w := s.W
	unit := make(map[string]string, len(PerLayer))
	for _, spec := range PerLayer {
		unit[spec.Name] = spec.Unit
		if _, ok := res.Metrics[spec.Name]; !ok {
			res.Metrics[spec.Name] = Metric{0, spec.Unit}
		}
	}
	set := func(name string, v float64) {
		u, ok := unit[name]
		if !ok {
			panic("bench: " + name + " is not a per-layer metric")
		}
		res.Metrics[name] = Metric{v, u}
	}
	ms := func(d time.Duration) float64 { return float64(d) / nsPerMs }

	// Medians over the recorded (even) timed steps.
	bs := s.rec.Budgets(WarmupSteps, w.Workers)
	med := func(f func(StepBudget) float64) float64 { return Median(column(bs, f)) }
	set("data.next_ms", med(func(b StepBudget) float64 { return b.Next }))
	set("moe.backbone_ms", med(func(b StepBudget) float64 { return b.Backbone }))
	set("moe.local_experts_ms", med(func(b StepBudget) float64 { return b.LocalExperts }))
	set("broker.exchange_ms", med(func(b StepBudget) float64 { return b.ExchangeFwd + b.ExchangeBwd }))
	set("broker.exchange_fwd_ms", med(func(b StepBudget) float64 { return b.ExchangeFwd }))
	set("broker.exchange_bwd_ms", med(func(b StepBudget) float64 { return b.ExchangeBwd }))
	set("broker.exchange_calls", med(func(b StepBudget) float64 { return float64(b.ExchangeCalls) }))
	set("broker.master_self_ms", med(func(b StepBudget) float64 { return b.MasterSelf }))
	set("transport.send_wire_ms", med(func(b StepBudget) float64 { return b.SendWire }))
	set("broker.worker_busy_ms", med(func(b StepBudget) float64 { return b.WorkerBusy }))
	set("transport.reply_wire_ms", med(func(b StepBudget) float64 { return b.ReplyWire }))
	set("link.shaped_wait_ms", med(func(b StepBudget) float64 { return b.ShapedWait }))
	set("broker.straggler_gap_ms", med(func(b StepBudget) float64 { return b.StragglerGap }))
	set("broker.worker_idle_share", med(func(b StepBudget) float64 { return b.WorkerIdleShare }))
	set("broker.expert_opt_ms", med(func(b StepBudget) float64 { return b.ExpertOpt }))
	set("nn.backbone_opt_ms", med(func(b StepBudget) float64 { return b.BackboneOpt }))
	set("telescope.step_residual_pct", Percentile(column(bs, func(b StepBudget) float64 { return b.StepResidualPct }), 1))
	set("telescope.exchange_residual_pct", Percentile(column(bs, func(b StepBudget) float64 { return b.ExchangeResidualPct }), 1))

	// Recording's own cost: even timed steps record, odd ones do not.
	var on, off []float64
	for i, v := range stepMs {
		if (WarmupSteps+i)%2 == 0 {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	set("trace.step_ms_p50", Median(on))
	set("trace.untraced_step_ms_p50", Median(off))
	if m := Median(off); m > 0 {
		set("trace.overhead_pct", 100*(Median(on)/m-1))
	}

	set("trainer.profile_ms", ms(s.Times.Profile))
	set("placement.solve_ms", ms(s.Times.Solve))
	set("core.distribute_ms", ms(s.Times.Distribute))
	if s.Problem != nil {
		if m, err := placement.Evaluate(s.Problem, s.Assign); err == nil {
			set("placement.predicted_comm_ms", m.CommTime*1e3)
			set("placement.predicted_cross_node_bytes", m.CrossNodeBytes)
		}
	}
	if c := s.churn; c != nil {
		set("checkpoint.stall_ms", Mean(hookMs))
		if c.boundaries > 0 {
			set("checkpoint.snapshot_ms", ms(c.snapshot)/float64(c.boundaries))
			set("checkpoint.run_save_ms", ms(c.runSave)/float64(c.boundaries))
			set("checkpoint.bytes_per_gen", float64(c.savedBytes)/float64(c.boundaries))
		}
		if c.rebalances > 0 {
			set("broker.rebalance_ms", ms(c.rebalance)/float64(c.rebalances))
		}
		if c.moved > 0 {
			set("broker.migrate_ms", ms(c.rebalance)/float64(c.moved))
		}
	}

	fwdbwd, gflops := ExpertBench(w, res.Seed)
	set("nn.expert_fwdbwd_ms", fwdbwd)
	set("tensor.gemm_gflops", gflops)
	s.rec.mu.Lock()
	frame := s.rec.captured
	s.rec.mu.Unlock()
	if frame != nil {
		enc, dec := WireBench(frame)
		for _, e := range []wire.Encoding{wire.EncFP64, wire.EncFP16, wire.EncInt8} {
			set("wire.encode_MBps."+e.String(), enc[e])
			set("wire.decode_MBps."+e.String(), dec[e])
		}
	}

	if n := float64(len(stepMs)); n > 0 {
		set("process.allocs_per_step", float64(mem1.Mallocs-mem0.Mallocs)/n)
		set("process.gc_pause_ms_per_step", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/nsPerMs/n)
	}
	set("process.peak_rss_mb", peakRSSMB())
}

// layerChecks verifies that the traced run's spans fit together and that
// each layer metric is present exactly where the workload exercises the
// layer.
func (s *System) layerChecks(res *Result) []string {
	var bad []string
	v := func(name string) float64 { return res.Metrics[name].Value }
	if r := v("telescope.step_residual_pct"); r > 2 {
		bad = append(bad, fmt.Sprintf("telescope: step parts leave %.2f%% of a step unexplained", r))
	}
	if r := v("telescope.exchange_residual_pct"); r > 2 {
		bad = append(bad, fmt.Sprintf("telescope: exchange parts leave %.2f%% of a step unexplained", r))
	}
	zero := func(name string, want bool) {
		if (v(name) == 0) != want {
			bad = append(bad, fmt.Sprintf("%s = %v on %s", name, v(name), s.W.Name))
		}
	}
	zero("wire_bytes_per_step", !s.W.Brokered())
	zero("broker.exchange_ms", !s.W.Brokered())
	zero("moe.local_experts_ms", s.W.Brokered())
	zero("link.shaped_wait_ms", !s.W.Shaped)
	zero("checkpoint.stall_ms", !s.W.Churn)
	if s.W.Brokered() {
		if got, want := v("broker.exchange_calls"), float64(2*s.W.Cfg.Layers); got != want {
			bad = append(bad, fmt.Sprintf("broker.exchange_calls = %v, want %v", got, want))
		}
	}
	return bad
}

// peakRSSMB reads the process's peak resident set size (VmHWM); 0 where
// /proc is not available.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
