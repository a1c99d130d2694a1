package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func TestMain(m *testing.M) {
	standaloneBudget = 2 * time.Millisecond // keep the traced smoke runs short
	os.Exit(m.Run())
}

func TestPercentileSelection(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := Percentile(vals, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := Percentile(vals, 1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := Percentile(vals[:10], 0.9); got != 99 { // 100..91 → 9th smallest
		t.Errorf("p90 of ten samples = %v, want 99", got)
	}
	if got := Median(vals); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	// statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := Quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := Quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two samples = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if Percentile(nil, 0.5) != 0 || Median(nil) != 0 {
		t.Error("empty input must yield 0")
	}
}

func TestShapedDelayArithmetic(t *testing.T) {
	if got := Delay(1_000_000, 1e6); got != time.Second {
		t.Errorf("1 MB at 1 MB/s = %v, want 1s", got)
	}
	// A 4 KiB frame on the shaped inter-node link: 4096 B / (1.17 GB/s / 192).
	if got := Delay(4096, 1.17e9/LinkScale); got != 672164*time.Nanosecond {
		t.Errorf("Delay = %v, want 672.164µs", got)
	}

	a, b := transport.Pipe()
	meter := &connMeter{}
	link := Shape(a, meter, 1e6)
	var slept []time.Duration
	link.sleep = func(d time.Duration) { slept = append(slept, d) }
	msg := &wire.Message{Type: wire.MsgForward, Tensors: []wire.Matrix{{Rows: 4, Cols: 8, Data: make([]float64, 32)}}}
	size := wire.EncodedSize(msg)
	if err := link.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{Delay(size, 1e6), Delay(size, 1e6)}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("injected sleeps %v, want %v (one per frame and direction)", slept, want)
	}
	if got := meter.bytes.Load(); got != int64(2*size) {
		t.Errorf("metered %d bytes, want %d", got, 2*size)
	}
	if got := meter.frames.Load(); got != 2 {
		t.Errorf("metered %d frames, want 2", got)
	}
	var none *Shaped
	if s, r := none.Waited(); s != 0 || r != 0 {
		t.Error("a nil link has waited for nothing")
	}
}

// TestWrappersDelegate checks that the shaped link and the master tap
// keep the wrapped conn's Serializer and Deadliner capabilities, like
// transport.Metered.
func TestWrappersDelegate(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	tcp, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if peer := <-accepted; peer != nil {
		defer peer.Close()
	}
	pipe, _ := transport.Pipe()

	wrap := map[string]func(transport.Conn) transport.Conn{
		"shaped": func(c transport.Conn) transport.Conn { return Shape(c, nil, 1e12) },
		"tap":    func(c transport.Conn) transport.Conn { return newMasterTap(c, nil, NewRecorder(), 0) },
		"tap over shaped": func(c transport.Conn) transport.Conn {
			link := Shape(c, &connMeter{}, 1e12)
			return newMasterTap(link, link, NewRecorder(), 0)
		},
	}
	for name, mk := range wrap {
		if !transport.Copies(mk(tcp)) {
			t.Errorf("%s over TCP lost SendCopies", name)
		}
		if transport.Copies(mk(pipe)) {
			t.Errorf("%s over a chan pipe claims SendCopies", name)
		}
		c := mk(tcp)
		if !transport.SetRecvDeadline(c, time.Now().Add(-time.Second)) {
			t.Errorf("%s does not take a receive deadline", name)
		}
		if _, err := c.Recv(); !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("%s: Recv past its deadline returned %v, want ErrTimeout", name, err)
		}
		if !transport.SetRecvDeadline(c, time.Time{}) || !transport.SetSendDeadline(c, time.Time{}) {
			t.Errorf("%s does not clear deadlines", name)
		}
	}
}

// shrink keeps a workload's topology, encoding, link, strategy and hook
// and cuts its arithmetic down to a few milliseconds per step.
func shrink(w Workload) Workload {
	w.Cfg.D /= 8
	w.Cfg.Hidden /= 8
	w.Cfg.Heads = 2
	w.Batch, w.SeqLen = 2, 8
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range Workloads {
		w := shrink(full)
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			// Six timed steps reach churn's first timed checkpoint and
			// rebalance (step 9).
			timed, err := Run(w, RunConfig{Seed: 7, Steps: 6, OutDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted != WarmupSteps+6 {
				t.Fatalf("timed run: correct=%v failed=%d attempted=%d checks=%v",
					timed.Correct, timed.Failed, timed.Attempted, timed.Checks)
			}
			for _, spec := range EndToEnd {
				if m, ok := timed.Metrics[spec.Name]; !ok || m.Value <= 0 || m.Unit != spec.Unit {
					t.Errorf("timed run: %s = %+v", spec.Name, m)
				}
			}
			wireBytes := timed.Extra["wire_bytes_per_step"].Value
			cross := timed.Extra["cross_node_bytes_per_step"].Value
			if (wireBytes > 0) != w.Brokered() {
				t.Errorf("wire_bytes_per_step = %v with Brokered() = %v", wireBytes, w.Brokered())
			}
			if (cross > 0) != w.Shaped { // only the shaped workloads span nodes
				t.Errorf("cross_node_bytes_per_step = %v", cross)
			}

			traced, err := Run(w, RunConfig{Seed: 7, Steps: 6, Trace: true, OutDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run: checks=%v", traced.Checks) // telescoping, presence, loss
			}
			if len(traced.Metrics) != len(PerLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(traced.Metrics), len(PerLayer))
			}
			if !reflect.DeepEqual(timed.Losses, traced.Losses) {
				t.Error("tracing changed the loss series")
			}
			if w.Churn {
				for _, name := range []string{"checkpoint.snapshot_ms", "checkpoint.run_save_ms",
					"checkpoint.bytes_per_gen", "broker.rebalance_ms", "broker.migrate_ms"} {
					if traced.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v on churn", name, traced.Metrics[name].Value)
					}
				}
			}
			if _, err := os.Stat(dir + "/" + w.Name + ".trace.jsonl"); err != nil {
				t.Errorf("no span dump: %v", err)
			}
			if _, err := os.Stat(dir + "/" + w.Name + ".ckpt"); !os.IsNotExist(err) {
				t.Errorf("checkpoint store left behind: %v", err)
			}
		})
	}
}

// TestShapedPairSharesLosses is the runtime form of the repo's invariant
// that placement never changes the arithmetic, and LocalityLP must cut
// cross-node bytes.
func TestShapedPairSharesLosses(t *testing.T) {
	var res [2]*Result
	for i, name := range []string{"shaped_sequential", "shaped_locality"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if res[i], err = Run(shrink(w), RunConfig{Seed: 3, Steps: 4, OutDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0].Losses, res[1].Losses) {
		t.Error("shaped_sequential and shaped_locality loss series differ")
	}
	seq, loc := res[0].Extra["cross_node_bytes_per_step"].Value, res[1].Extra["cross_node_bytes_per_step"].Value
	if !(loc < seq) {
		t.Errorf("cross-node bytes: locality %v, sequential %v", loc, seq)
	}
}

func TestByteCountersRepeat(t *testing.T) {
	w, err := Lookup("expert_bound")
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*Result
	for i := range res {
		if res[i], err = Run(shrink(w), RunConfig{Seed: 11, Steps: 4, OutDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0].Extra, res[1].Extra) {
		t.Errorf("byte counters differ between two runs of one seed:\n%v\n%v", res[0].Extra, res[1].Extra)
	}
	if !reflect.DeepEqual(res[0].Losses, res[1].Losses) {
		t.Error("loss series differ between two runs of one seed")
	}
}

func TestLossCheckReportsFirstDivergence(t *testing.T) {
	ref := []float64{3, 2, 1}
	if msg := LossCheck([]float64{3, 2, 1, 0.5}, ref); msg != "" {
		t.Errorf("identical prefix rejected: %s", msg)
	}
	if msg := LossCheck([]float64{3, math.Nextafter(2, 3), 1}, ref); msg == "" {
		t.Error("a one-ulp difference passed")
	}
	if msg := LossCheck([]float64{3, 2}, ref); msg == "" {
		t.Error("a short series passed")
	}
	if msg := LossCheck([]float64{3, 2, 1, math.NaN()}, ref); msg == "" {
		t.Error("a NaN loss passed")
	}
}

// TestBenchmarkJSONMatchesCode keeps the driver's contract file and the
// program's metric and workload lists from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []MetricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, spec := range want {
			if got[i].Name != spec.Name || got[i].Unit != spec.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], code has %s [%s]",
					kind, i, got[i].Name, got[i].Unit, spec.Name, spec.Unit)
			}
			if bounded != (got[i].Bound != nil) {
				t.Errorf("%s metric %s: bound presence is wrong", kind, got[i].Name)
			}
			if got[i].Bound != nil && (*got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got[i].Name, *got[i].Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd, true)
	same("per_layer", doc.PerLayer, PerLayer, false)
}
