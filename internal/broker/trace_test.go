package broker

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// traceDeployment is a master with per-worker handles on SEPARATE trace
// rings (and therefore separate clock epochs) — the cross-process shape
// velamaster+velaworker run in, in-process so both sides are assertable.
type traceDeployment struct {
	exec    *Executor
	master  *obs.Handle
	workers []*obs.Handle
	done    []chan error
	cleanup []func()
}

// startTraceDeployment wires `workers` instrumented workers to an
// instrumented executor over pipes (tcp=false) or real TCP loopback
// sockets (tcp=true) and distributes a small expert grid.
func startTraceDeployment(t *testing.T, workers int, tcp bool) *traceDeployment {
	t.Helper()
	cfg := testConfig()
	_, grid := buildFinetuneSetup(cfg, 7)

	d := &traceDeployment{master: obs.NewHandle(obs.Config{Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts})}
	conns := make([]transport.Conn, workers)
	for i := 0; i < workers; i++ {
		wh := obs.NewHandle(obs.Config{Workers: i + 1})
		d.workers = append(d.workers, wh)
		wcfg := DefaultWorkerConfig()
		wcfg.Obs = wh
		w := NewWorker(i, wcfg)
		done := make(chan error, 1)
		d.done = append(d.done, done)
		if tcp {
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer l.Close()
				conn, err := l.Accept()
				if err != nil {
					done <- err
					return
				}
				done <- w.Serve(conn)
			}()
			c, err := transport.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = c
		} else {
			masterEnd, workerEnd := transport.Pipe()
			go func() { done <- w.Serve(workerEnd) }()
			conns[i] = masterEnd
		}
	}
	d.exec = NewExecutor(conns, roundRobinAssignment(cfg, workers))
	d.exec.Obs = d.master
	spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
	if err := d.exec.Distribute(grid, spec); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *traceDeployment) close(t *testing.T) {
	t.Helper()
	if err := d.exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, done := range d.done {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d serve: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d did not exit", i)
		}
	}
}

// runTraceRoundTrip drives clock-sampling pings and compute rounds
// through separate-handle workers, pulls their rings with MsgTraceFetch,
// assembles the cross-process timeline, and asserts the correlation and
// the telescoping span identity — the ISSUE's acceptance criterion that
// EvReply.Dur equals the 4-span sum (exactly, by construction; clock
// error only moves the wire split).
func runTraceRoundTrip(t *testing.T, tcp bool) {
	const workers = 2
	d := startTraceDeployment(t, workers, tcp)
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker")
	defer d.close(t)

	// Heartbeat pings carry the 4-timestamp echo that feeds ClockSync.
	// One preempted ping can still move its EWMA offset by more than a
	// request's round trip; Assemble keeps the worker-clock spans whole
	// through that, which the compute-span check below depends on.
	for i := 0; i < 48; i++ {
		for n := 0; n < workers; n++ {
			if err := d.exec.Ping(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := 0; n < workers; n++ {
		if d.master.Clocks.Samples(n) == 0 {
			t.Fatalf("worker %d: ping echoes produced no clock samples", n)
		}
	}

	cfg := testConfig()
	rng := rand.New(rand.NewSource(9))
	batches := make(map[int]*tensor.Tensor, cfg.Experts)
	for e := 0; e < cfg.Experts; e++ {
		batches[e] = tensor.Randn(rng, 1, 4, cfg.D)
	}
	const steps = 2
	for s := 0; s < steps; s++ {
		d.master.StartStep(s)
		for l := 0; l < cfg.Layers; l++ {
			if _, err := d.exec.ForwardExperts(l, batches); err != nil {
				t.Fatal(err)
			}
		}
		d.master.EndStep()
	}

	// Pull each worker's ring the way velamaster does at step boundaries.
	wes := make([]timeline.WorkerEvents, workers)
	cursors := make([]uint64, workers)
	for n := 0; n < workers; n++ {
		evs, cur, dropped, err := d.exec.FetchWorkerTrace(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 {
			t.Fatalf("worker %d: %d events dropped in a short run", n, dropped)
		}
		if len(evs) == 0 {
			t.Fatalf("worker %d: trace fetch returned no events", n)
		}
		kinds := map[obs.EventKind]int{}
		for _, ev := range evs {
			kinds[ev.Kind]++
			if ev.Worker != int32(n) {
				t.Fatalf("worker %d ring carries a foreign event: %+v", n, ev)
			}
		}
		// One frame per round; one queue-wait and one compute span per
		// expert in it.
		rounds, computes := steps*cfg.Layers, steps*cfg.Layers*cfg.Experts/workers
		if kinds[obs.EvWkRecv] != rounds || kinds[obs.EvWkReply] != rounds ||
			kinds[obs.EvWkQueue] != computes || kinds[obs.EvCompute] != computes {
			t.Fatalf("worker %d: event counts %v, want %d recv/reply and %d queue/compute", n, kinds, rounds, computes)
		}
		cursors[n] = cur
		wes[n] = timeline.WorkerEvents{
			Events:     evs,
			OffsetNs:   d.master.Clocks.Offset(n),
			ErrBoundNs: d.master.Clocks.ErrorBound(n),
		}
	}

	// The incremental contract: an immediate re-fetch from the returned
	// cursor is empty.
	for n := 0; n < workers; n++ {
		evs, cur, _, err := d.exec.FetchWorkerTrace(n, cursors[n])
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 0 || cur != cursors[n] {
			t.Fatalf("worker %d: idle re-fetch returned %d events, cursor %d -> %d", n, len(evs), cursors[n], cur)
		}
	}

	tl := timeline.Assemble(d.master.Trace.Snapshot(), wes...)
	if len(tl.Requests) == 0 {
		t.Fatal("no correlated requests assembled")
	}
	correlated, timed := 0, 0
	for i := range tl.Requests {
		r := &tl.Requests[i]
		if got, want := (r.SendWire + r.Queue + r.Compute + r.ReplyWire), r.T5-r.T0; got != want {
			t.Fatalf("request seq %d: SpanSum %d != T5-T0 %d", r.Seq, got, want)
		}
		if r.ReplyDur > 0 && r.ReplyDur != (r.SendWire+r.Queue+r.Compute+r.ReplyWire) {
			t.Fatalf("request seq %d: EvReply.Dur %d != span sum %d", r.Seq, r.ReplyDur, (r.SendWire + r.Queue + r.Compute + r.ReplyWire))
		}
		if r.HasWorker {
			correlated++
			if len(r.Computes) != cfg.Experts/workers {
				t.Fatalf("correlated request seq %d carries %d compute spans, want one per expert: %+v", r.Seq, len(r.Computes), r)
			}
			if r.Compute > 0 {
				timed++
			}
		}
	}
	want := steps * cfg.Layers * workers
	if correlated != want {
		t.Fatalf("%d requests correlated with worker-side events, want %d (one per worker per round)", correlated, want)
	}
	// The master stamps EvSend after Send returns, so on a busy box a
	// short frame can be computed and answered before its T0 exists and
	// its compute span is cut short; that is the exception, not the rule.
	if 2*timed < want {
		t.Fatalf("only %d of %d correlated requests have a compute span", timed, want)
	}
}

// TestTraceRoundTripChan covers the in-process pipe transport (frames
// move by ownership transfer, no encoding).
func TestTraceRoundTripChan(t *testing.T) { runTraceRoundTrip(t, false) }

// TestTraceRoundTripTCP covers real loopback sockets: pooled frame
// encode/decode on both legs, including the MsgTraceFetch reply ride
// home on a pooled frame.
func TestTraceRoundTripTCP(t *testing.T) { runTraceRoundTrip(t, true) }

// TestPingWithoutObsStaysPlain pins backward compatibility: an
// uninstrumented master (nil Obs) sends a bare ping and an instrumented
// worker answers it without a timestamp tensor; an instrumented master
// talking to an uninstrumented worker gets no clock sample but no error.
func TestPingWithoutObsStaysPlain(t *testing.T) {
	// Uninstrumented master, instrumented worker.
	wcfg := DefaultWorkerConfig()
	wcfg.Obs = obs.NewHandle(obs.Config{Workers: 1})
	dep := StartLocalWorkers(1, wcfg)
	cfg := testConfig()
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 1))
	if err := exec.Ping(0); err != nil {
		t.Fatal(err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}

	// Instrumented master, uninstrumented worker: ping succeeds, clock
	// stays unsampled (the worker echoed zeros).
	dep2 := StartLocalWorkers(1, DefaultWorkerConfig())
	exec2 := NewExecutor(dep2.Conns, roundRobinAssignment(cfg, 1))
	exec2.Obs = obs.NewHandle(obs.Config{Workers: 1})
	if err := exec2.Ping(0); err != nil {
		t.Fatal(err)
	}
	if exec2.Obs.Clocks.Samples(0) != 0 {
		t.Fatal("uninstrumented worker produced a clock sample")
	}
	if err := exec2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep2.Wait(); err != nil {
		t.Fatal(err)
	}
	testutil.VerifyNoLeaks(t, "repro/internal/broker")
}

// TestFetchWorkerTraceUninstrumented pins the degenerate fetch: a worker
// with no Obs answers with an empty result instead of an error.
func TestFetchWorkerTraceUninstrumented(t *testing.T) {
	dep := StartLocalWorkers(1, DefaultWorkerConfig())
	cfg := testConfig()
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 1))
	evs, cur, dropped, err := exec.FetchWorkerTrace(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || cur != 0 || dropped != 0 {
		t.Fatalf("uninstrumented fetch: %d events cursor %d dropped %d, want zeros", len(evs), cur, dropped)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
	testutil.VerifyNoLeaks(t, "repro/internal/broker")
}

// BenchmarkWorkerHooksPerRequest isolates the three worker-side hooks a
// request costs (recv, queue-wait, reply) — the allocbound analyzer bans
// allocation syntax in them; this pins the runtime cost.
func BenchmarkWorkerHooksPerRequest(b *testing.B) {
	handle := obs.NewHandle(obs.Config{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i)
		handle.OnWorkerRecv(0, 1, 2, seq, int64(i), 4096)
		handle.OnWorkerQueue(0, 1, 2, seq, 0)
		handle.OnWorkerReply(0, 1, 2, seq, 0, 2048)
	}
}

// BenchmarkTraceFetch measures one master-side MsgTraceFetch round trip
// against a worker ring holding a full step of events (pipe transport).
func BenchmarkTraceFetch(b *testing.B) {
	wh := obs.NewHandle(obs.Config{Workers: 1, TraceCapacity: 4096})
	wcfg := DefaultWorkerConfig()
	wcfg.Obs = wh
	dep := StartLocalWorkers(1, wcfg)
	cfg := testConfig()
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 1))
	for i := 0; i < 2048; i++ {
		wh.OnWorkerRecv(0, 0, 0, uint64(i), int64(i), 128)
	}
	defer func() {
		if err := exec.Shutdown(); err != nil {
			b.Fatal(err)
		}
		if err := dep.Wait(); err != nil {
			b.Fatal(err)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := exec.FetchWorkerTrace(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
