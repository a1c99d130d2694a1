package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/testutil"
	"repro/internal/trainer"
)

// EP's functional geometry: d=16, three ranks, six experts per layer.
const epRanks, epBatch, epSeqLen, epSteps = 3, 3, 16, 8

func epCheckpoint(batch int) (*moe.Model, [][]*moe.Expert, *trainer.FixedBatcher) {
	cfg := moe.Config{Vocab: 24, D: 16, Heads: 2, Hidden: 24, Layers: 4, Experts: 6, TopK: 2}
	rng := rand.New(rand.NewSource(1))
	ids, targets := make([]int, batch*epSeqLen), make([]int, batch*epSeqLen)
	for i := range ids {
		ids[i], targets[i] = rng.Intn(cfg.Vocab), rng.Intn(cfg.Vocab)
	}
	return moe.NewModel(cfg, rand.New(rand.NewSource(7)), true),
		moe.NewExpertGrid(cfg, rand.New(rand.NewSource(8)), true),
		trainer.NewFixedBatcher(ids, targets, batch, epSeqLen)
}

// epTopo places ranks devices on nodes of perNode each; every device can
// hold the whole 4×6 grid.
func epTopo(ranks, perNode int) cluster.Topology {
	return cluster.Uniform(ranks, perNode, 24, 18.3*cluster.GB, 1.17*cluster.GB)
}

// epRun trains EP and returns its losses and rank 0's final backbone LoRA.
// The replicas must be bit-identical after every step, and every rank must
// have moved cross-rank bytes and exchanged 4 frames per layer per step
// with every worker, those it routed no rows to included (the size sync).
func epRun(t *testing.T) (losses, backbone []float64) {
	t.Helper()
	model, grid, src := epCheckpoint(epBatch)
	ep, err := DeployEP(model, grid, epTopo(epRanks, 1), trainer.PaperLoRA(), src)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < epSteps; s++ {
		loss, err := ep.Step()
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		losses = append(losses, loss)
		for r, ft := range ep.Ranks {
			for i, p := range ft.Backbone {
				if !testutil.BitEqualSlices(p.Value.Data, ep.Ranks[0].Backbone[i].Value.Data) {
					t.Fatalf("step %d: rank %d's %s differs from rank 0's", s, r, p.Name)
				}
			}
		}
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	for r, x := range ep.Execs {
		for w := 0; w < epRanks; w++ {
			if got, want := x.Counters.Worker(obs.TrafficFrames, w), int64(4*model.Cfg.Layers*epSteps); got != want {
				t.Errorf("rank %d exchanged %d frames with worker %d, want 4·L·steps = %d", r, got, w, want)
			}
		}
		if x.Counters.CrossNodeBytes() == 0 {
			t.Errorf("rank %d moved no cross-rank bytes", r)
		}
	}
	for _, p := range ep.Ranks[0].Backbone {
		backbone = append(backbone, p.Value.Data...)
	}
	return losses, backbone
}

// TestEPMatchesOneMaster is EP's functional anchor: three ranks on
// contiguous shards track one broker master on the global batch with the
// same expert layout step for step, and two runs are bit-identical.
func TestEPMatchesOneMaster(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/core", "repro/internal/broker")
	losses, backbone := epRun(t)

	model, grid, src := epCheckpoint(epBatch)
	trainer.PrepareForFinetune(model, grid, trainer.PaperLoRA())
	sys, err := Deploy(model, grid, Options{Topo: epTopo(epRanks, 1), Strategy: placement.EP{},
		Stats: moe.NewAccessStats(model.Cfg.Layers, model.Cfg.Experts), LoRA: trainer.PaperLoRA()})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := sys.Finetuner(src)
	if err != nil {
		t.Fatal(err)
	}
	for s, epLoss := range losses {
		loss, err := ft.Step()
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(loss - epLoss); d > 1e-9 {
			t.Errorf("step %d: EP loss %.15f, one master %.15f (|Δ| %.3g > 1e-9)", s, epLoss, loss, d)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	again, backboneAgain := epRun(t)
	if !testutil.BitEqualSlices(losses, again) || !testutil.BitEqualSlices(backbone, backboneAgain) {
		t.Fatalf("two EP runs differ: losses %v vs %v", losses, again)
	}
}

// TestEPRankFailureEndsEveryRank: DeployEP refuses a bad rank count; when
// one rank's pipe closes mid-run, every rank's step fails, none blocks,
// and Close leaves no goroutine.
func TestEPRankFailureEndsEveryRank(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/core", "repro/internal/broker", "repro/internal/transport")
	model, grid, src := epCheckpoint(epBatch)
	for _, ranks := range []int{1, 2} { // too few ranks; ranks that do not divide the batch of 3
		if _, err := DeployEP(model, grid, epTopo(ranks, 1), trainer.PaperLoRA(), src); err == nil {
			t.Fatalf("DeployEP over %d ranks must fail", ranks)
		}
	}
	ep, err := DeployEP(model, grid, epTopo(epRanks, 1), trainer.PaperLoRA(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Step(); err != nil {
		t.Fatal(err)
	}
	ep.Execs[1].MarkDead(0) // closes rank 1's pipe to worker 0
	done := make(chan error, 1)
	go func() { _, err := ep.Step(); _ = ep.Close(); done <- err }()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("EP step still blocked a minute after a rank's pipe closed")
	}
	if joined, ok := err.(interface{ Unwrap() []error }); !ok || len(joined.Unwrap()) != epRanks {
		t.Fatalf("want every one of %d ranks to fail, got %v", epRanks, err)
	}
}

// TestEPCrossNodeFollowsTopology: six ranks on the paper's 3 nodes × 2
// devices. Rank r counts exactly the bytes it exchanged with the workers
// off its own node as cross-node; its node-mate's traffic is real and not
// counted.
func TestEPCrossNodeFollowsTopology(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/core", "repro/internal/broker")
	const ranks = 6
	topo := epTopo(ranks, 2)
	model, grid, src := epCheckpoint(ranks)
	ep, err := DeployEP(model, grid, topo, trainer.PaperLoRA(), src)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if _, err := ep.Step(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	for r, x := range ep.Execs {
		var want int64
		for w := range topo.Devices {
			bytes := x.Counters.Worker(obs.TrafficBytesTo, w) + x.Counters.Worker(obs.TrafficBytesFrom, w)
			switch node := topo.Devices[w].Node; {
			case node != topo.Devices[r].Node:
				want += bytes
			case w != r && bytes == 0:
				t.Errorf("rank %d exchanged no bytes with its node-mate %d", r, w)
			}
		}
		if got := x.Counters.CrossNodeBytes(); got != want {
			t.Errorf("rank %d: %d cross-node bytes, want %d, the traffic with the other nodes' workers", r, got, want)
		}
	}
}
