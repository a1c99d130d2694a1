package broker_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
)

// updateGolden rewrites the two loss series, testdata/pinned.losses and
// testdata/pinned.vrun.losses, from the current build: a re-pin of the
// numerics. It never rewrites testdata/pinned.vrun, the generation written
// by the parent of the base/delta split (commit 825404a, every snapshot
// entry a full MsgAssign payload): a later build would write delta entries
// and the test would silently stop pinning that format.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pinned.losses and pinned.vrun.losses from this build")

const (
	pinnedLosses    = "testdata/pinned.losses"      // 10 loss bit patterns of the fresh run
	pinnedGen       = "testdata/pinned.vrun"        // the parent's generation at step 6 (full entries)
	pinnedGenLosses = "testdata/pinned.vrun.losses" // 10 loss bit patterns of the run resumed from it

	pinnedWorkers   = 3
	pinnedCrashAt   = 8  // the first run is abandoned after this many steps
	pinnedTotal     = 10 // the resumed run drives the rest
	pinnedMigrateAt = 1  // 0-based step whose boundary rebalances two experts
	pinnedKillAt    = 3  // ... arms the close of worker 2's connection
	pinnedSaveAt    = 5  // ... writes the run generation
)

// pinnedRig is one deterministic deployment of the pinned scenario: the
// whole prelude is a function of constants, which is what a resuming
// master relies on.
type pinnedRig struct {
	sys    *core.System
	dep    *broker.LocalDeployment
	grid   [][]*moe.Expert
	ft     *trainer.Finetuner
	faulty *transport.Faulty
}

// pinnedSeeds stamp the scenario's generation.
var pinnedSeeds = []int64{1, 21, 7}

func newPinnedRig(t *testing.T) *pinnedRig {
	t.Helper()
	cfg := moe.Config{Vocab: data.VocabSize, D: 8, Heads: 2, Hidden: 12, Layers: 2, Experts: 4, TopK: 2}
	rng := rand.New(rand.NewSource(1))
	model := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 21}
	trainer.PrepareForFinetune(model, grid, lora)

	dep := broker.StartLocalWorkers(pinnedWorkers, broker.DefaultWorkerConfig())
	t.Cleanup(func() {
		dep.Close()
		dep.WaitAll() // no serve goroutine outlives the test (other tests check for leaks)
	})
	conns := append([]transport.Conn(nil), dep.Conns...)
	faulty := transport.NewFaulty(conns[2], 7, transport.FaultPlan{})
	conns[2] = faulty

	stats := moe.NewAccessStats(cfg.Layers, cfg.Experts)
	for l := range stats.Counts {
		for e := range stats.Counts[l] {
			stats.Counts[l][e] = 1
		}
	}
	sys, err := core.Attach(model, conns, core.Options{
		Topo:     cluster.Uniform(pinnedWorkers, 1, cfg.Layers*cfg.Experts, cluster.GB, cluster.GB),
		Strategy: placement.Sequential{},
		Stats:    stats,
		LoRA:     lora,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Exec.RequestTimeout = 2 * time.Second
	sys.Supervisor(broker.SupervisorConfig{})
	ft, err := sys.Finetuner(data.NewBatcher(data.Shakespeare(4000), 2, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	return &pinnedRig{sys: sys, dep: dep, grid: grid, ft: ft, faulty: faulty}
}

// pinnedCrashedRun drives the first life of the scenario: a snapshot at
// every boundary, a two-expert rebalance, a worker severed mid-step and
// failed over, a run generation saved into store — then abandoned after
// pinnedCrashAt steps. It returns the loss series.
func pinnedCrashedRun(t *testing.T, store *checkpoint.RunStore) []float64 {
	t.Helper()
	r := newPinnedRig(t)
	if err := r.sys.Distribute(r.grid); err != nil {
		t.Fatal(err)
	}
	w := checkpoint.NewAsyncWriter(store, nil)
	r.sys.CheckpointEvery(pinnedSaveAt+1, pinnedSeeds, w)
	r.ft.OnStep = func(step int) error {
		if err := r.sys.StepBoundary(step); err != nil {
			return err
		}
		switch step {
		case pinnedMigrateAt:
			// Swap the hosts of the first two experts of each layer.
			alt := r.sys.Exec.Assignment().Clone()
			for l := range alt.Worker {
				alt.Worker[l][0], alt.Worker[l][1] = alt.Worker[l][1], alt.Worker[l][0]
			}
			moved, err := r.sys.Exec.Rebalance(alt)
			if err != nil || moved != 2*len(alt.Worker) {
				return fmt.Errorf("rebalance moved %d experts: %v", moved, err)
			}
		case pinnedKillAt:
			r.faulty.ArmClose(0) // after this boundary's snapshot
		}
		return nil
	}
	if err := r.ft.Run(pinnedCrashAt, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r.sys.Exec.Alive(2) {
		t.Fatal("worker 2 was never failed over")
	}
	return r.ft.Losses.Values
}

// pinnedResumedRun is the second life: a fresh prelude resumed from
// store's newest generation and driven to pinnedTotal steps, again with a
// snapshot at every boundary.
func pinnedResumedRun(t *testing.T, store *checkpoint.RunStore) []float64 {
	t.Helper()
	r := newPinnedRig(t)
	rs, err := r.sys.Resume(store, r.grid, pinnedSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Step != pinnedSaveAt+1 {
		t.Fatalf("resumed at step %d, want %d", rs.Step, pinnedSaveAt+1)
	}
	if err := r.ft.Run(pinnedTotal, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Close(); err != nil {
		t.Fatal(err)
	}
	return r.ft.Losses.Values
}

func lossLines(losses []float64) string {
	var b strings.Builder
	for s, v := range losses {
		fmt.Fprintf(&b, "loss %02d %016x\n", s, math.Float64bits(v))
	}
	return b.String()
}

// TestPinnedRunMatchesParent replays, to the bit, a pinned run: snapshot
// every step, migrate, fail a worker over, save a generation, resume from
// it. It also pins the artefact of such a run that leaves the process: the
// parent-written generation (full entries) must still resume onto this
// build, with its own continuation. That series is not the fresh run's:
// its steps up to the save are the bits the parent computed, read from the
// generation, and only the steps after it are computed by this build.
func TestPinnedRunMatchesParent(t *testing.T) {
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	crashed := pinnedCrashedRun(t, store)
	resumed := pinnedResumedRun(t, store)
	if !testutil.BitEqualSlices(crashed, resumed[:pinnedCrashAt]) {
		t.Fatalf("resumed run diverged from the run it continues:\n%s\nvs\n%s", lossLines(crashed), lossLines(resumed))
	}

	gen, err := os.ReadFile(pinnedGen)
	if err != nil {
		t.Fatal(err)
	}
	old := &checkpoint.RunStore{Dir: t.TempDir()}
	if err := os.WriteFile(filepath.Join(old.Dir, "gen-00000001.vrun"), gen, 0o644); err != nil {
		t.Fatal(err)
	}
	continued := pinnedResumedRun(t, old)

	for _, c := range []struct {
		path, what string
		losses     []float64
	}{
		{pinnedLosses, "loss series", resumed},
		{pinnedGenLosses, "resume from the parent-written generation", continued},
	} {
		got := lossLines(c.losses)
		if *updateGolden {
			if err := os.WriteFile(c.path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", c.path)
			continue
		}
		want, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%s differs from %s:\n%s\nwant\n%s", c.what, c.path, got, want)
		}
	}
}

// TestResumeRefusesADifferentGrid: a generation names, per expert, the
// frozen weights it was trained over. Resuming it onto a prelude whose
// grid differs from them in one bit of one expert fails before anything is
// shipped, and the error says which expert — the alternative is a run
// that continues and silently diverges.
func TestResumeRefusesADifferentGrid(t *testing.T) {
	store := &checkpoint.RunStore{Dir: t.TempDir()}
	pinnedCrashedRun(t, store)

	r := newPinnedRig(t)
	w3 := r.grid[1][2].FFN.W3.W.Value.Data
	w3[5] = math.Float64frombits(math.Float64bits(w3[5]) ^ 1)
	_, err := r.sys.Resume(store, r.grid, pinnedSeeds)
	if err == nil || !strings.Contains(err.Error(), "L1/E2") {
		t.Fatalf("resume onto a grid one bit off = %v, want a refusal naming L1/E2", err)
	}
	for n, w := range r.dep.Workers {
		if hosted := w.NumExperts(); hosted != 0 {
			t.Fatalf("worker %d was shipped %d expert(s) by the refused resume", n, hosted)
		}
	}
}
