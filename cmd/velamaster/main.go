// Command velamaster runs VELA's master process against a set of running
// velaworker processes: it manufactures the pre-trained checkpoint
// (deterministic), profiles expert locality on the chosen corpus, solves
// the locality-aware placement for the declared topology, ships each
// expert to its worker, and drives LoRA fine-tuning through the Expert
// Broker while accounting every byte.
//
// Usage (start the workers first):
//
//	velaworker -listen 127.0.0.1:7001 & velaworker -listen 127.0.0.1:7002 &
//	velamaster -workers 127.0.0.1:7001,127.0.0.1:7002 -devices-per-node 1 \
//	           -dataset shakespeare -steps 20 -strategy vela
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// runOptions carries the fault-tolerance and observability knobs into run.
type runOptions struct {
	heartbeat       time.Duration
	requestTimeout  time.Duration
	metricsAddr     string
	replaceDrift    float64
	replaceCooldown int
	wireEncoding    wire.Encoding
	ckptDir         string
	ckptEvery       int
	ckptKeep        int
	resume          bool
	traceExport     string
	traceCapacity   int
	baseDir         string
}

// runSeeds are the RNG seeds of the deterministic prelude (profile,
// fine-tune batcher). They ride in every run-level checkpoint so a
// resume against different seeds fails loudly instead of silently
// diverging.
var runSeeds = []int64{41, 43}

func main() {
	workers := flag.String("workers", "", "comma-separated worker addresses (required)")
	devicesPerNode := flag.Int("devices-per-node", 2, "workers per physical node (first node hosts the master)")
	dataset := flag.String("dataset", "shakespeare", "fine-tuning corpus: shakespeare|wikitext|alpaca")
	steps := flag.Int("steps", 20, "fine-tuning steps")
	strategy := flag.String("strategy", "vela", "expert placement: vela|sequential|random|greedy")
	pretrainSteps := flag.Int("pretrain-steps", 120, "checkpoint pre-training steps")
	ckptPath := flag.String("ckpt", "", "checkpoint file: loaded if present, written after pre-training otherwise")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "supervisor heartbeat interval (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-reply deadline on worker requests (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty disables)")
	replaceDrift := flag.Float64("replace-drift", 0, "drift threshold arming the online re-placement controller (0 disables; e.g. 0.1)")
	replaceCooldown := flag.Int("replace-cooldown", 0, "step boundaries the controller stays quiet after acting (0 = controller default)")
	wireEncoding := flag.String("wire-encoding", "fp16", "activation/gradient wire encoding: fp64|fp16|int8")
	checkpointDir := flag.String("checkpoint-dir", "", "run-level checkpoint directory (empty disables durable checkpointing)")
	checkpointEvery := flag.Int("checkpoint-every", 5, "checkpoint after every N completed steps")
	checkpointKeep := flag.Int("checkpoint-keep", checkpoint.DefaultRunKeep, "checkpoint generations to retain")
	resume := flag.Bool("resume", false, "resume from the newest valid generation in -checkpoint-dir")
	traceExport := flag.String("trace-export", "", "write the assembled cross-process timeline as Chrome trace-event JSON (Perfetto-loadable) to this file on exit; also pulls worker trace rings at step boundaries and prints the per-step critical path")
	traceCapacity := flag.Int("trace-capacity", 0, "master trace-ring capacity in events (0 = default 4096; rounded up to a power of two)")
	baseDir := flag.String("base-dir", checkpoint.DefaultBaseDir(), "host-local store of frozen expert bases; installs ship a base's key and the delta when the worker's store holds it; used only if private to this user (mode 0700); empty ships full entries")
	flag.Parse()

	if *workers == "" {
		log.Fatal("velamaster: -workers is required")
	}
	if *resume && *checkpointDir == "" {
		log.Fatal("velamaster: -resume requires -checkpoint-dir")
	}
	enc, err := wire.ParseEncoding(*wireEncoding)
	if err != nil {
		log.Fatalf("velamaster: %v", err)
	}
	opts := runOptions{
		heartbeat: *heartbeat, requestTimeout: *requestTimeout,
		metricsAddr: *metricsAddr, replaceDrift: *replaceDrift, replaceCooldown: *replaceCooldown,
		wireEncoding: enc, ckptDir: *checkpointDir, ckptEvery: *checkpointEvery, ckptKeep: *checkpointKeep, resume: *resume,
		traceExport: *traceExport, traceCapacity: *traceCapacity, baseDir: *baseDir,
	}
	if err := run(strings.Split(*workers, ","), *devicesPerNode, *dataset, *strategy, *steps, *pretrainSteps, *ckptPath, opts); err != nil {
		log.Fatalf("velamaster: %v", err)
	}
}

func run(addrs []string, devicesPerNode int, dataset, strategyName string, steps, pretrainSteps int, ckptPath string, opts runOptions) error {
	corpus, err := corpusFor(dataset)
	if err != nil {
		return err
	}

	cfg := moe.TinyMistralConfig()
	var model *moe.Model
	var grid [][]*moe.Expert
	if ckptPath != "" {
		if model, grid, err = checkpoint.LoadFile(ckptPath); err == nil {
			fmt.Printf("loaded checkpoint %s\n", ckptPath)
			cfg = model.Cfg
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	if model == nil {
		fmt.Printf("building pre-trained checkpoint (%d steps)...\n", pretrainSteps)
		pcfg := trainer.DefaultPretrain()
		pcfg.Steps = pretrainSteps
		if model, grid, err = trainer.BuildPretrained(cfg, 20000, pcfg); err != nil {
			return err
		}
		if ckptPath != "" {
			if err := checkpoint.SaveFile(ckptPath, model, grid); err != nil {
				return err
			}
			fmt.Printf("saved checkpoint to %s\n", ckptPath)
		}
	}
	model.BindLocalExperts(grid)
	lora := trainer.PaperLoRA()
	trainer.PrepareForFinetune(model, grid, lora)

	fmt.Println("profiling expert locality on the fine-tuning corpus...")
	stats, err := trainer.Profile(model, corpus, 20, 2, 32, 41)
	if err != nil {
		return err
	}

	topo := cluster.Uniform(len(addrs), devicesPerNode,
		(cfg.Layers*cfg.Experts+len(addrs)-1)/len(addrs)+2,
		18.3*cluster.GB, 1.17*cluster.GB)
	strat, err := strategyFor(strategyName)
	if err != nil {
		return err
	}

	fmt.Printf("connecting to %d workers...\n", len(addrs))
	conns := make([]transport.Conn, len(addrs))
	for i, addr := range addrs {
		c, err := transport.Dial(strings.TrimSpace(addr))
		if err != nil {
			return fmt.Errorf("worker %d (%s): %w", i, addr, err)
		}
		defer c.Close()
		conns[i] = c
	}
	handle := obs.NewHandle(obs.Config{
		Workers: len(addrs), Layers: cfg.Layers, Experts: cfg.Experts,
		TraceCapacity: opts.traceCapacity,
	})
	sys, err := core.Attach(model, conns, core.Options{
		Topo:            topo,
		Strategy:        strat,
		Stats:           stats,
		RoutingsPerStep: float64(2 * 32 * cfg.TopK),
		// Price a value at exactly what the selected wire encoding ships (the
		// fp16 default reproduces the paper's 2·D per token): explicit, so an
		// fp64 wire costs 8 B/value, not core's 16-bit what-if default.
		BitDepth:     opts.wireEncoding.BitsPerValue(),
		WireEncoding: opts.wireEncoding,
		LoRA:         lora,
		Obs:          handle,
	})
	if err != nil {
		return err
	}
	exec := sys.Exec
	exec.RequestTimeout = opts.requestTimeout
	exec.BaseDir = opts.baseDir
	m, err := placement.Evaluate(sys.Problem, exec.Assignment())
	if err != nil {
		return err
	}
	fmt.Printf("placement (%s): expected %s\n", strat.Name(), m)

	// The supervisor heartbeats workers in the background, keeps a
	// step-boundary expert snapshot, and fails dead workers over onto the
	// survivors; the trainer just retries the interrupted step. (Created
	// before the metrics endpoint so /healthz can report parked rejoins;
	// the heartbeat only starts after expert distribution below.)
	sup := sys.Supervisor(broker.SupervisorConfig{HeartbeatInterval: opts.heartbeat})
	sup.OnFailover = func(dead []int, next *placement.Assignment) {
		fmt.Printf("  failover: workers %v lost; experts re-placed over survivors\n", dead)
	}
	// Rejoin: the heartbeat redials dead workers; a restarted velaworker
	// answers the handshake and is re-admitted at the next step boundary.
	sup.Redial = func(n int) (transport.Conn, error) {
		return transport.Dial(strings.TrimSpace(addrs[n]))
	}
	sup.OnRejoin = func(n int) {
		fmt.Printf("  worker %d rejoined; experts eligible to migrate back\n", n)
	}

	if opts.metricsAddr != "" {
		srv, err := obs.Serve(opts.metricsAddr, sys.MetricsSource())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics (healthz, debug/pprof alongside)\n", srv.Addr)
	}

	if opts.resume {
		fmt.Println("resuming: experts will be restored from the run checkpoint, not re-distributed")
	} else {
		fmt.Println("distributing experts to workers...")
		if err := sys.Distribute(grid); err != nil {
			return err
		}
	}

	sup.Start()
	defer sup.Stop()

	// Cross-process trace collection: master-side events come straight out
	// of the handle's ring; worker-side rings are pulled incrementally at
	// step boundaries (and once more at exit) so a small worker ring never
	// overwrites events before the master has drained them.
	var trace *traceCollector
	if opts.traceExport != "" {
		trace = newTraceCollector(handle, exec, len(addrs))
		// Prime the clock estimators before step 0: the heartbeat would
		// sample eventually, but a short run can finish before its first
		// tick, and an unsampled worker's events would be rebased with the
		// identity offset — useless across real process epochs.
		trace.PrimeClocks()
	}

	// Online re-placement: when sustained routing drift leaves the solved
	// placement stale, re-solve over the live estimate and migrate the
	// experts between two steps.
	var ctrl *replace.Controller
	if opts.replaceDrift > 0 {
		ctrl, err = sys.ReplaceController(replace.Config{
			DriftThreshold: opts.replaceDrift,
			CooldownSteps:  opts.replaceCooldown,
		})
		if err != nil {
			return err
		}
		ctrl.OnReplace = func(step, moved int, savings, cost float64) {
			fmt.Printf("  step %d: re-placed %d experts (predicted savings %.3gs/step, move cost %.3gs)\n",
				step+1, moved, savings, cost)
		}
		fmt.Printf("re-placement controller armed (drift threshold %.3g)\n", opts.replaceDrift)
	}

	// SIGINT/SIGTERM finishes the in-flight step and shuts the workers down
	// cleanly. The stopped run's durable state is its newest run generation
	// (-checkpoint-dir), which -resume reads.
	var stopRequested atomic.Bool
	errStopped := fmt.Errorf("velamaster: stopped by signal: %w", trainer.ErrStop)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	//lint:ignore goleak signal watcher: parked on the OS signal channel until SIGINT/SIGTERM or process exit
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		stopRequested.Store(true)
		fmt.Printf("\n%v — finishing current step, then shutting down\n", s)
	}()

	ft, err := sys.Finetuner(data.NewBatcher(corpus, 2, 32, 43))
	if err != nil {
		return err
	}

	// Run-level checkpointing: every -checkpoint-every-th boundary the
	// system holds is written out, stamped with the prelude seeds.
	var writer *checkpoint.AsyncWriter
	if opts.ckptDir != "" {
		store := &checkpoint.RunStore{Dir: opts.ckptDir, Keep: opts.ckptKeep}
		if opts.resume {
			t0 := time.Now()
			rs, err := sys.Resume(store, grid, runSeeds)
			if err != nil {
				return err
			}
			fmt.Printf("resumed from generation %d at step %d (%v)\n",
				rs.Generation, rs.Step, time.Since(t0).Round(time.Millisecond))
		}
		writer = checkpoint.NewAsyncWriter(store, exec.Counters)
		defer writer.Close()
		sys.CheckpointEvery(opts.ckptEvery, runSeeds, writer)
		fmt.Printf("run-level checkpointing to %s (every %d steps, keep %d)\n",
			opts.ckptDir, opts.ckptEvery, opts.ckptKeep)
	}

	ft.OnStep = func(step int) error {
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		trace.OnStep()
		if stopRequested.Load() {
			return errStopped
		}
		return nil
	}

	fmt.Printf("fine-tuning for %d steps on %s...\n", steps, corpus.Name)
	start := time.Now()
	err = ft.Run(steps, func(step int, loss float64) {
		if (step+1)%5 == 0 || step == 0 {
			fmt.Printf("  step %3d  loss %.4f\n", step+1, loss)
		}
	})
	if err != nil && !errors.Is(err, errStopped) {
		return err
	}
	elapsed := time.Since(start)
	sup.Stop()
	if writer != nil {
		if cerr := writer.Close(); cerr != nil {
			fmt.Printf("checkpoint writer: %v\n", cerr)
		}
	}

	ran := steps - ft.StartStep // a resumed run only drives the remainder
	if ran < 1 {
		ran = 1
	}
	fmt.Printf("\ndone in %v (%.3f s/step)\n", elapsed.Round(time.Millisecond), elapsed.Seconds()/float64(ran))
	if err := obs.WriteReport(os.Stdout, sys.MetricsSource()); err != nil {
		return err
	}
	if trace != nil {
		if err := trace.Export(opts.traceExport, os.Stdout); err != nil {
			// Trace export is an observability artifact; a failed write must
			// not turn a finished run into a failure.
			fmt.Printf("trace export: %v\n", err)
		}
	}
	return sys.Close()
}

// traceCollector drains the master and worker trace rings incrementally
// and assembles them into the cross-process timeline at exit.
type traceCollector struct {
	handle *obs.Handle
	exec   *broker.Executor

	masterEvents []obs.Event
	masterCursor uint64
	wkEvents     [][]obs.Event
	wkCursors    []uint64
	wkDropped    []uint64
}

func newTraceCollector(handle *obs.Handle, exec *broker.Executor, workers int) *traceCollector {
	return &traceCollector{
		handle:    handle,
		exec:      exec,
		wkEvents:  make([][]obs.Event, workers),
		wkCursors: make([]uint64, workers),
		wkDropped: make([]uint64, workers),
	}
}

// PrimeClocks runs a burst of ping rounds per worker so every clock
// estimator has real offset/RTT samples before the first traced step.
// Best-effort: a worker that fails to answer is the supervisor's
// problem, not the trace's.
func (t *traceCollector) PrimeClocks() {
	if t == nil {
		return
	}
	const rounds = 5 // enough for the EWMA to settle past one outlier RTT
	for n := range t.wkCursors {
		for i := 0; i < rounds; i++ {
			if err := t.exec.Ping(n); err != nil {
				break
			}
		}
	}
}

// OnStep drains the step's new events. Worker pulls are best-effort: a
// dead worker is skipped (its already-pulled prefix still renders) and
// the supervisor's failover handles the request path.
func (t *traceCollector) OnStep() {
	if t == nil {
		return
	}
	evs, cur := t.handle.Trace.SnapshotFrom(t.masterCursor)
	t.masterEvents = append(t.masterEvents, evs...)
	t.masterCursor = cur
	dead := t.exec.DeadMask()
	for n := range t.wkCursors {
		if n < len(dead) && dead[n] {
			continue
		}
		evs, cur, dropped, err := t.exec.FetchWorkerTrace(n, t.wkCursors[n])
		if err != nil {
			continue
		}
		t.wkEvents[n] = append(t.wkEvents[n], evs...)
		t.wkCursors[n] = cur
		t.wkDropped[n] = dropped
	}
}

// Export runs a final drain, rebases worker events through the clock-sync
// estimates, writes the Chrome trace-event file, and prints the per-step
// critical path to rep.
func (t *traceCollector) Export(path string, rep io.Writer) error {
	t.OnStep()
	wes := make([]timeline.WorkerEvents, 0, len(t.wkEvents))
	for n, evs := range t.wkEvents {
		if len(evs) == 0 {
			continue
		}
		wes = append(wes, timeline.WorkerEvents{
			Events:     evs,
			OffsetNs:   t.handle.Clocks.Offset(n),
			ErrBoundNs: t.handle.Clocks.ErrorBound(n),
		})
		if d := t.wkDropped[n]; d > 0 {
			fmt.Fprintf(rep, "trace: worker %d ring overwrote %d events before they were pulled (raise velaworker -trace-capacity)\n", n, d)
		}
	}
	tl := timeline.Assemble(t.masterEvents, wes...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(rep, "trace: %d requests across %d workers exported to %s (load in https://ui.perfetto.dev)\n",
		len(tl.Requests), len(wes), path)
	return tl.WriteCriticalPath(rep)
}

func corpusFor(name string) (*data.Corpus, error) {
	switch name {
	case "shakespeare":
		return data.Shakespeare(20000), nil
	case "wikitext":
		return data.WikiText(20000), nil
	case "alpaca":
		return data.Alpaca(20000), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

func strategyFor(name string) (placement.Strategy, error) {
	switch name {
	case "vela":
		return placement.LocalityLP{}, nil
	case "sequential":
		return placement.Sequential{}, nil
	case "random":
		return placement.Random{Seed: 1}, nil
	case "greedy":
		return placement.Greedy{}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}
