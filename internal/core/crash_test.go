package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

var crashChild = flag.String("crash-child", "", "run TestCrashResume's checkpointing child against this directory")

const (
	crashSteps  = 12
	crashGen    = 6 // the child SIGKILLs itself once this generation is durable
	crashWorker = 2 // killed and rejoined during the resumed run
)

// crashSeeds are the prelude's seeds (profile, batches) every generation
// is stamped with.
var crashSeeds = []int64{6, 7}

// crashSystem builds TestCrashResume's deployment, the same in every phase
// and process: three in-process AdamW workers on equal links, each able to
// host the whole grid (so the survivors absorb a failover and only load
// balance argues for moving experts home), Sequential placement, and the
// supervised run with a controller only a request starts. Worker
// crashWorker sits behind an unarmed fault injector, and a redial of it
// is a fresh worker. Resuming, the experts are left to Resume.
func crashSystem(t *testing.T, resuming bool) (*System, *trainer.Finetuner, [][]*moe.Expert, *transport.Faulty) {
	t.Helper()
	m, grid, opts, corpus := prelude(t)
	opts.Topo = cluster.Uniform(3, 1, 8, cluster.GB, cluster.GB)
	opts.Strategy = placement.Sequential{}
	dep := broker.StartLocalWorkers(3, broker.DefaultWorkerConfig())
	conns := append([]transport.Conn(nil), dep.Conns...)
	faulty := transport.NewFaulty(conns[crashWorker], 7, transport.FaultPlan{})
	conns[crashWorker] = faulty
	sys, err := Attach(m, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close(); dep.Close(); dep.WaitAll() })
	if !resuming {
		if err := sys.Distribute(grid); err != nil {
			t.Fatal(err)
		}
	}
	ft, _ := supervised(t, sys, corpus)
	sys.sup.Redial = func(int) (transport.Conn, error) {
		w := broker.StartLocalWorkers(1, broker.DefaultWorkerConfig())
		t.Cleanup(func() { w.Close(); w.WaitAll() })
		return w.Conns[0], nil
	}
	return sys, ft, grid, faulty
}

// TestCrashResume is crash-resume across a real process kill. A child
// process (this test binary, re-run with -crash-child) checkpoints every
// step and SIGKILLs itself once generation crashGen is durable; the
// parent tears that generation. System.Resume must fall back to
// generation crashGen−1. The resumed run then loses worker crashWorker
// mid-step, fails over, redials it and admits it back, and the
// controller's rejoin nudge must move experts home. The 12-step loss
// series must equal a failure-free run's to the bit.
func TestCrashResume(t *testing.T) {
	if *crashChild != "" {
		crashChildRun(t, *crashChild)
		return
	}
	_, ref, _, _ := crashSystem(t, false)
	if err := ref.Run(crashSteps, nil); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCrashResume$", "-crash-child="+dir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.Exited() {
		t.Fatalf("child ended with %v, want it killed at generation %d:\n%s", err, crashGen, out)
	}
	store := &checkpoint.RunStore{Dir: dir}
	if gens, err := store.Generations(); err != nil || len(gens) == 0 || gens[len(gens)-1] != crashGen {
		t.Fatalf("generations %v (%v) after the kill, want the newest %d", gens, err, crashGen)
	}
	torn := filepath.Join(dir, fmt.Sprintf("gen-%08d.vrun", crashGen))
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, info.Size()*2/3); err != nil {
		t.Fatal(err)
	}

	sys, ft, grid, faulty := crashSystem(t, true)
	rs, err := sys.Resume(store, grid, crashSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Generation != crashGen-1 {
		t.Fatalf("resumed from generation %d, want the fallback past the torn one to %d", rs.Generation, crashGen-1)
	}
	kill := rs.Step + 1
	ft.OnStep = func(step int) error {
		if step == kill+1 {
			sys.sup.Probe() // redials the dead worker; the boundary admits it
		}
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		if step == kill {
			faulty.ArmClose(0) // the next step's first frame to the worker severs it
		}
		return nil
	}
	if err := ft.Run(crashSteps, nil); err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqualSlices(ref.Losses.Values, ft.Losses.Values) {
		t.Fatalf("kill+resume diverged from the failure-free run:\nclean  = %v\nresume = %v", ref.Losses.Values, ft.Losses.Values)
	}
	ctr := sys.Exec.Counters
	if failovers, rejoins := ctr.Get(obs.WorkerFailovers), ctr.Get(obs.WorkerRejoins); failovers != 1 || rejoins != 1 {
		t.Fatalf("%d failover(s) and %d rejoin(s), want 1 and 1", failovers, rejoins)
	}
	if n := sys.Exec.Assignment().Loads(3)[crashWorker]; n == 0 {
		t.Fatalf("rejoined worker %d hosts no expert: the rejoin nudge moved none home", crashWorker)
	}
}

// crashChildRun is TestCrashResume's child: it trains, waits at each
// boundary until that boundary's generation is durable, and SIGKILLs its
// own process once generation crashGen is.
func crashChildRun(t *testing.T, dir string) {
	sys, ft, _, _ := crashSystem(t, false)
	store := &checkpoint.RunStore{Dir: dir}
	sys.CheckpointEvery(1, crashSeeds, checkpoint.NewAsyncWriter(store, nil))
	ft.OnStep = func(step int) error {
		if err := sys.StepBoundary(step); err != nil {
			return err
		}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if gens, err := store.Generations(); err == nil && len(gens) > 0 && gens[len(gens)-1] == uint64(step+1) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("generation %d never became durable", step+1)
			}
		}
		if step+1 == crashGen {
			self, _ := os.FindProcess(os.Getpid())
			_ = self.Kill()
			time.Sleep(time.Minute)
		}
		return nil
	}
	err := ft.Run(crashSteps, nil)
	t.Fatalf("the child outlived generation %d: %v", crashGen, err)
}
