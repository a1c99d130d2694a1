// Restart: durable checkpointing under a real SIGKILL. The harness runs
// three phases of the same deterministic deployment:
//
//  1. A failure-free in-process reference run records the ground-truth
//     loss trajectory.
//  2. A child process trains with run-level checkpointing (a generation
//     per step, written in the background as velamaster writes them) and
//     is SIGKILLed mid-run, once enough generations are on disk. The parent then truncates the newest
//     generation to simulate a torn write.
//  3. The parent resumes from the checkpoint directory: the store must
//     fall back past the damaged generation, the restored run must
//     continue bit-identically — while a worker is additionally killed
//     mid-resume, failed over, restarted, re-admitted via the rejoin
//     path, and handed its experts back by the re-placement controller.
//
// Self-checking: the resumed trajectory must equal the reference
// bit-for-bit (AdamW moments included), the fallback generation must be
// newest-1, and the rejoined worker must host experts again at the end.
// Emits BENCH_ckpt.json with the measured checkpoint/resume costs.
//
// Run with: go run ./examples/restart
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	osexec "os/exec"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

const (
	workers      = 3
	totalSteps   = 12
	killWorker   = 2 // the worker killed and rejoined during the resumed phase
	batch        = 2
	seqLen       = 16
	batchSeed    = 7
	profileSeed  = 6
	killAfterGen = 6 // SIGKILL the child once this generation is durable
)

func main() {
	childDir := flag.String("child-ckpt-dir", "", "internal: run the checkpointing child phase against this directory")
	flag.Parse()
	if *childDir != "" {
		if err := runChild(*childDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runParent(); err != nil {
		log.Fatal(err)
	}
}

// benchReport is the BENCH_ckpt.json schema.
type benchReport struct {
	NewestGenAtKill   uint64  `json:"newest_generation_at_kill"`
	ResumedGeneration uint64  `json:"resumed_generation_after_corruption"`
	ResumeSeconds     float64 `json:"resume_seconds"`
	CheckpointWrites  int64   `json:"resumed_phase_checkpoint_writes"`
	CheckpointSkips   int64   `json:"resumed_phase_checkpoint_skips"`
	CheckpointBytes   int64   `json:"checkpoint_bytes"`
	WriteMillis       float64 `json:"checkpoint_write_ms"`
	BitIdentical      bool    `json:"loss_bit_identical_to_failure_free"`
	WorkerRejoins     int64   `json:"worker_rejoins"`
	ExpertsOnRejoined int     `json:"experts_back_on_rejoined_worker"`
}

func runParent() error {
	fmt.Println("phase 1: failure-free reference run...")
	refSys, err := buildSystem(false)
	if err != nil {
		return err
	}
	if err := refSys.ft.Run(totalSteps, nil); err != nil {
		return err
	}
	ref := refSys.ft.Losses.Values
	if err := refSys.Close(); err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "vela-restart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("phase 2: spawning checkpointing child, SIGKILL once generation %d is durable...\n", killAfterGen)
	child := osexec.Command(os.Args[0], "-child-ckpt-dir", dir)
	child.Stdout, child.Stderr = os.Stdout, os.Stderr
	if err := child.Start(); err != nil {
		return err
	}
	store := &checkpoint.RunStore{Dir: dir}
	newest, err := waitForGeneration(store, killAfterGen, 60*time.Second)
	if err != nil {
		_ = child.Process.Kill()
		return err
	}
	if err := child.Process.Kill(); err != nil {
		return err
	}
	werr := child.Wait() // "signal: killed" — the SIGKILL is the point
	fmt.Printf("  child killed at generation >= %d (%v)\n", newest, werr)

	// Re-read: a save may have landed between the poll and the kill.
	gens, err := store.Generations()
	if err != nil {
		return err
	}
	newest = gens[len(gens)-1]
	victim := filepath.Join(dir, checkpoint.RunGenFile(newest))
	info, err := os.Stat(victim)
	if err != nil {
		return err
	}
	if err := os.Truncate(victim, info.Size()*2/3); err != nil {
		return err
	}
	fmt.Printf("  truncated newest generation %d (%d -> %d bytes) to simulate a torn write\n",
		newest, info.Size(), info.Size()*2/3)

	fmt.Println("phase 3: resuming from the damaged directory...")
	sys, err := buildSystem(true)
	if err != nil {
		return err
	}
	// Experts were NOT distributed: Resume ships the rebuilt grid's frozen
	// weights with the checkpointed trainable state (AdamW moments
	// included) — the path velamaster -resume takes.
	t0 := time.Now()
	rs, err := sys.Resume(store, sys.grid, seeds)
	if err != nil {
		return err
	}
	if rs.Generation != newest-1 {
		return fmt.Errorf("resume loaded generation %d, want fallback to %d", rs.Generation, newest-1)
	}
	fmt.Printf("  resumed at step %d from generation %d (%v)\n",
		rs.Step, rs.Generation, time.Since(t0).Round(time.Millisecond))

	writer := checkpoint.NewAsyncWriter(store, sys.Exec.Counters)
	sys.CheckpointEvery(1, seeds, writer)
	killStep := rs.Step + 1    // sever worker 2's connection after this completed step
	rejoinStep := killStep + 1 // restart and re-admit it at the following boundary
	sys.ft.OnStep = func(step int) error {
		if step == rejoinStep {
			// One heartbeat round by hand: it redials the "restarted" worker
			// and parks the connection; the boundary below admits it and
			// nudges the controller to re-solve.
			sys.sup.Probe()
			fmt.Printf("  step %d: worker %d restarted, rejoining\n", step+1, killWorker)
		}
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		if step == killStep {
			// Armed AFTER the boundary's snapshot: the next frame to the
			// worker severs its connection mid-step.
			fmt.Printf("  step %d: severing worker %d's connection mid-resume\n", step+1, killWorker)
			sys.faulty.ArmClose(0)
		}
		return nil
	}
	if err := sys.ft.Run(totalSteps, nil); err != nil {
		return err
	}
	if err := writer.Close(); err != nil {
		return err
	}
	if err := sys.Close(); err != nil {
		return err
	}

	// Verdicts.
	bitIdentical := testutil.BitEqualSlices(ref, sys.ft.Losses.Values)
	ctr := sys.Exec.Counters
	rejoins := ctr.Get(obs.WorkerRejoins)
	back := sys.Exec.Assignment().Loads(workers)[killWorker]

	fmt.Printf("\n%-6s %-14s %-14s\n", "step", "failure-free", "kill+resume")
	for s := range ref {
		fmt.Printf("%-6d %-14.6f %-14.6f\n", s, ref[s], sys.ft.Losses.Values[s])
	}
	fmt.Println()
	if err := obs.WriteReport(os.Stdout, sys.MetricsSource()); err != nil {
		return err
	}
	fmt.Printf("worker %d hosts %d experts after migrate-back\n", killWorker, back)

	report := benchReport{
		NewestGenAtKill:   newest,
		ResumedGeneration: rs.Generation,
		ResumeSeconds:     time.Duration(ctr.Get(obs.CkptResumeNanos)).Seconds(),
		CheckpointWrites:  ctr.Get(obs.CkptWrites),
		CheckpointSkips:   ctr.Get(obs.CkptSkips),
		CheckpointBytes:   ctr.Get(obs.CkptLastBytes),
		WriteMillis:       float64(ctr.Get(obs.CkptLastWriteNanos)) / 1e6,
		BitIdentical:      bitIdentical,
		WorkerRejoins:     rejoins,
		ExpertsOnRejoined: back,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_ckpt.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_ckpt.json")

	switch {
	case !bitIdentical:
		return fmt.Errorf("FAIL: resumed trajectory diverged from the failure-free run")
	case rejoins != 1:
		return fmt.Errorf("FAIL: %d worker rejoins, want 1", rejoins)
	case back == 0:
		return fmt.Errorf("FAIL: no experts migrated back to rejoined worker %d", killWorker)
	}
	fmt.Println("PASS: SIGKILL + torn-write fallback + worker rejoin, loss trajectory bit-identical")
	return nil
}

// runChild is phase 2's victim: it trains with one generation per
// completed step and sleeps between steps so the parent can SIGKILL it
// mid-run with generations on disk.
func runChild(dir string) error {
	sys, err := buildSystem(false)
	if err != nil {
		return err
	}
	writer := checkpoint.NewAsyncWriter(&checkpoint.RunStore{Dir: dir}, sys.Exec.Counters)
	sys.CheckpointEvery(1, seeds, writer)
	sys.ft.OnStep = func(step int) error {
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		fmt.Printf("  child: step %d checkpointed\n", step+1)
		time.Sleep(150 * time.Millisecond)
		return nil
	}
	if err := sys.ft.Run(totalSteps, nil); err != nil {
		return err
	}
	if err := writer.Close(); err != nil {
		return err
	}
	return sys.Close()
}

// waitForGeneration polls the store until generation want is durable.
func waitForGeneration(store *checkpoint.RunStore, want uint64, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		gens, err := store.Generations()
		if err == nil && len(gens) > 0 && gens[len(gens)-1] >= want {
			return gens[len(gens)-1], nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, fmt.Errorf("child produced no generation >= %d within %v", want, timeout)
}

// system is one fully wired deterministic deployment. Every phase builds
// an identical one — the resume contract is that the prelude is a pure
// function of its seeds, with all mutable state poured in by Resume.
type system struct {
	*core.System
	grid   [][]*moe.Expert
	faulty *transport.Faulty
	sup    *broker.Supervisor
	ft     *trainer.Finetuner
}

// seeds are the prelude's seeds every generation is stamped with: a
// resume against a different prelude must fail loudly.
var seeds = []int64{profileSeed, batchSeed}

// buildSystem attaches the deterministic prelude to fresh in-process
// workers and distributes the experts — except when resuming, which puts
// worker killWorker behind a fault injector and leaves them to Resume.
func buildSystem(resuming bool) (*system, error) {
	cfg := moe.Config{Vocab: data.VocabSize, D: 16, Heads: 2, Hidden: 24, Layers: 3, Experts: 3, TopK: 2}
	pre := trainer.DefaultPretrain()
	pre.Steps = 60
	model, grid, err := trainer.BuildPretrained(cfg, 8000, pre)
	if err != nil {
		return nil, err
	}
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)
	corpus := data.Shakespeare(6000)
	stats, err := trainer.Profile(model, corpus, 4, batch, seqLen, profileSeed)
	if err != nil {
		return nil, err
	}

	handle := obs.NewHandle(obs.Config{Workers: workers, Layers: cfg.Layers, Experts: cfg.Experts})
	wcfg := broker.DefaultWorkerConfig()
	wcfg.Obs = handle
	dep := broker.StartLocalWorkers(workers, wcfg)
	conns := append([]transport.Conn(nil), dep.Conns...)
	var faulty *transport.Faulty
	if resuming {
		faulty = transport.NewFaulty(conns[killWorker], 7, transport.FaultPlan{})
		conns[killWorker] = faulty
	}

	// Equal links, each worker able to host the whole grid: survivors
	// absorb a failover, and once the worker is back only load balance —
	// not a faster link — argues for moving its experts home.
	sys, err := core.Attach(model, conns, core.Options{
		Topo:            cluster.Uniform(workers, 1, cfg.Layers*cfg.Experts, cluster.GB, cluster.GB),
		Strategy:        placement.Sequential{},
		Stats:           stats,
		RoutingsPerStep: float64(batch * seqLen * cfg.TopK),
		LoRA:            lora,
		Obs:             handle,
	})
	if err != nil {
		return nil, err
	}
	sys.Exec.RequestTimeout = 2 * time.Second
	if !resuming {
		if err := sys.Distribute(grid); err != nil {
			return nil, err
		}
	}

	sup := sys.Supervisor(broker.SupervisorConfig{})
	sup.OnFailover = func(dead []int, next *placement.Assignment) {
		fmt.Printf("  supervisor: worker(s) %v declared dead, experts failed over\n", dead)
	}
	// A "restarted" worker is a fresh Expert Manager on a fresh connection.
	sup.Redial = func(int) (transport.Conn, error) {
		return broker.StartLocalWorkers(1, wcfg).Conns[0], nil
	}

	// The controller is armed but its drift trigger is far out of reach
	// (threshold 10 over an L1 signal bounded by 2): only the explicit
	// rejoin nudge can start a re-solve. The generous amortization horizon
	// lets the migrate-back pass the cost gate on this tiny deployment.
	if _, err := sys.ReplaceController(replace.Config{DriftThreshold: 10, AmortizeSteps: 500}); err != nil {
		return nil, err
	}

	ft, err := sys.Finetuner(data.NewBatcher(corpus, batch, seqLen, batchSeed))
	if err != nil {
		return nil, err
	}
	return &system{System: sys, grid: grid, faulty: faulty, sup: sup, ft: ft}, nil
}
