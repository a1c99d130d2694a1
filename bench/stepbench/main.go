// Command stepbench is the repository's step benchmark: one LoRA
// fine-tuning step of the real trainer → moe → broker → wire/transport →
// worker path over TCP loopback, on five pinned workloads.
//
//	stepbench -workload NAME -seed N [-seconds S | -steps K] [-trace 0|1]
//
// runs one workload in this process and prints every metric of the mode
// by name with its unit, then — as the last line — one JSON object with
// the keys correct, attempted, failed and metrics. Without -workload it
// runs all five, each timed and then traced in a child process of its
// own so peak memory and GC state do not leak between workloads, and
// cross-checks their loss series. -repeat K runs K timed sets back to
// back and prints the noise floor. The exit status is non-zero when a
// step fails or an output check does not hold. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"repro/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run in this process; empty runs all five in child processes")
		seed     = flag.Int64("seed", 1, "seeds the LoRA adapters, the batch stream and the profiling pass (the checkpoint is pinned)")
		seconds  = flag.Float64("seconds", 0, "length of the timed phase in seconds; 0 selects -steps")
		steps    = flag.Int("steps", 0, "length of the timed phase in steps; 0 selects 100 (timed) or 60 (traced)")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result files, span dumps and churn's checkpoint store")
		repeat   = flag.Int("repeat", 0, "run this many timed sets of all workloads back to back and print the noise floor")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.RunConfig{Seed: *seed, Seconds: *seconds, Steps: *steps, Trace: *trace == 1, OutDir: *out}
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, cfg)
	case *repeat > 0:
		err = runRepeat(*repeat, cfg)
	default:
		err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		os.Exit(1)
	}
}

func modeName(trace bool) string {
	if trace {
		return "traced"
	}
	return "timed"
}

func resultPath(dir, workload string, trace bool) string {
	return filepath.Join(dir, workload+"."+modeName(trace)+".json")
}

// runOne runs one workload in this process.
func runOne(name string, cfg bench.RunConfig) error {
	w, err := bench.Lookup(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	res, err := bench.Run(w, cfg)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(cfg.OutDir, name, cfg.Trace), raw, 0o644); err != nil {
		return err
	}

	m := res.Machine
	fmt.Printf("# %s seed=%d mode=%s timed_steps=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		name, cfg.Seed, modeName(cfg.Trace), res.TimedSteps, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit)
	specs := bench.EndToEnd
	if cfg.Trace {
		specs = bench.PerLayer
	}
	for _, s := range specs {
		fmt.Printf("%-40s %16.4f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	for _, k := range sortedKeys(res.Extra) {
		fmt.Printf("%-40s %16.4f %s\n", k, res.Extra[k].Value, res.Extra[k].Unit)
	}
	for _, c := range res.Checks {
		fmt.Println("CHECK FAILED:", c)
	}
	fmt.Printf("loss_check %s, failed_steps %d of %d\n", passFail(res.Correct), res.Failed, res.Attempted)

	last, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed", name)
	}
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

func sortedKeys(m map[string]bench.Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// child runs one workload in a child process of this binary and returns
// its result file. The child's output passes through.
func child(name string, cfg bench.RunConfig) (*bench.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if cfg.Trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-steps", strconv.Itoa(cfg.Steps),
		"-trace", traceArg, "-out", cfg.OutDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to end
	raw, err := os.ReadFile(resultPath(cfg.OutDir, name, cfg.Trace))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var res bench.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll runs every workload timed and then traced, and prints what only
// the set as a whole can show.
func runAll(cfg bench.RunConfig) error {
	timed := make(map[string]*bench.Result)
	traced := make(map[string]*bench.Result)
	ok := true
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.Trace = trace
			res, err := child(w.Name, c)
			if err != nil {
				return err
			}
			ok = ok && res.Correct
			if trace {
				traced[w.Name] = res
			} else {
				timed[w.Name] = res
			}
		}
	}

	fmt.Println("\n# cross-workload checks")
	same := func(a, b string) {
		la, lb := timed[a].Losses, timed[b].Losses
		n := min(len(la), len(lb))
		at := -1
		for i := 0; i < n && at < 0; i++ {
			if math.Float64bits(la[i]) != math.Float64bits(lb[i]) {
				at = i
			}
		}
		if at >= 0 {
			ok = false
			fmt.Printf("loss series %s vs %s: FAIL, first difference at step %d\n", a, b, at)
			return
		}
		fmt.Printf("loss series %s vs %s: bit-identical over %d steps\n", a, b, n)
	}
	same("expert_bound", "local_baseline")
	same("churn", "local_baseline")
	same("shaped_locality", "shaped_sequential")
	for _, name := range []string{"shaped_sequential", "shaped_locality"} {
		l := timed[name].Losses
		if len(l) >= 2*bench.WarmupSteps {
			first, last := bench.Mean(l[:bench.WarmupSteps]), bench.Mean(l[len(l)-bench.WarmupSteps:])
			fmt.Printf("%s loss: first %d steps mean %.4f, last %d steps mean %.4f: %s\n",
				name, bench.WarmupSteps, first, bench.WarmupSteps, last, passFail(last < first))
			ok = ok && last < first
		}
	}

	fmt.Println("\n# budget: timed step_ms_p50, then each layer's share of the traced step")
	fmt.Printf("%-18s %9s %9s %9s %9s %9s %9s %9s %9s\n", "workload", "step_p50", "backbone", "experts",
		"exchange", "w_busy", "wire", "link", "trace_ovh")
	for _, w := range bench.Workloads {
		t, tr := timed[w.Name], traced[w.Name]
		v := func(name string) float64 { return tr.Metrics[name].Value }
		step := v("trace.step_ms_p50")
		pct := func(x float64) string { return fmt.Sprintf("%.0f%%", 100*x/step) }
		fmt.Printf("%-18s %9.2f %9s %9s %9s %9s %9s %9s %8.1f%%\n", w.Name,
			t.Metrics["step_ms_p50"].Value, pct(v("moe.backbone_ms")), pct(v("moe.local_experts_ms")),
			pct(v("broker.exchange_ms")), pct(v("broker.worker_busy_ms")),
			pct(v("transport.send_wire_ms")+v("transport.reply_wire_ms")), pct(v("link.shaped_wait_ms")),
			v("trace.overhead_pct"))
	}
	seq, loc := "shaped_sequential", "shaped_locality"
	fmt.Printf("\n# Fig. 5/6 from the runtime: %s vs %s\n", loc, seq)
	ratio := func(label string, a, b float64) {
		fmt.Printf("%-28s %14.2f vs %14.2f  (%+.1f%%)\n", label, a, b, 100*(a/b-1))
	}
	ratio("step_ms_p50", timed[loc].Metrics["step_ms_p50"].Value, timed[seq].Metrics["step_ms_p50"].Value)
	ratio("cross_node_bytes_per_step", timed[loc].Extra["cross_node_bytes_per_step"].Value,
		timed[seq].Extra["cross_node_bytes_per_step"].Value)
	for _, name := range []string{seq, loc} {
		v := func(k string) float64 { return traced[name].Metrics[k].Value }
		fmt.Printf("%s: predicted comm %.2f ms vs measured link wait %.2f ms; predicted cross-node %.0f B vs measured %.0f B\n",
			name, v("placement.predicted_comm_ms"), v("link.shaped_wait_ms"),
			v("placement.predicted_cross_node_bytes"), v("cross_node_bytes_per_step"))
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runRepeat runs K timed sets back to back and prints, per workload and
// end-to-end metric, the median, the quartiles and the largest relative
// difference between any two sets.
func runRepeat(k int, cfg bench.RunConfig) error {
	cfg.Trace = false
	values := make(map[string]map[string][]float64) // workload → metric → per-set values
	type setRow struct {
		Set     int                                `json:"set"`
		Results map[string]map[string]bench.Metric `json:"results"`
	}
	var sets []setRow
	for i := 0; i < k; i++ {
		row := setRow{Set: i + 1, Results: make(map[string]map[string]bench.Metric)}
		for _, w := range bench.Workloads {
			res, err := child(w.Name, cfg)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: output checks failed in set %d", w.Name, i+1)
			}
			all := make(map[string]bench.Metric)
			for name, m := range res.Metrics {
				all[name] = m
			}
			for name, m := range res.Extra {
				all[name] = m
			}
			row.Results[w.Name] = all
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range all {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
		sets = append(sets, row)
	}
	fmt.Printf("\n# noise floor over %d sets (seed %d)\n", k, cfg.Seed)
	fmt.Printf("%-18s %-28s %14s %14s %14s %10s\n", "workload", "metric", "median", "q1", "q3", "max_rel_diff")
	for _, w := range bench.Workloads {
		names := make([]string, 0, len(values[w.Name]))
		for name := range values[w.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[w.Name][name]
			q1, q3 := bench.Quartiles(vs)
			lo, hi := bench.Percentile(vs, 0), bench.Percentile(vs, 1)
			rel := 0.0
			if lo > 0 {
				rel = hi/lo - 1
			}
			fmt.Printf("%-18s %-28s %14.4f %14.4f %14.4f %9.2f%%\n", w.Name, name, bench.Median(vs), q1, q3, 100*rel)
		}
	}
	raw, err := json.MarshalIndent(struct {
		Machine bench.Machine `json:"machine"`
		Seed    int64         `json:"seed"`
		Sets    []setRow      `json:"sets"`
	}{bench.ThisMachine(), cfg.Seed, sets}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, "repeat.json"), raw, 0o644)
}
