package moe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// recordingExec hands every batch and gradient map to inner after keeping
// a copy of it, so two blocks' dispatches can be compared.
type recordingExec struct {
	inner    Executor
	fwd, bwd []map[int]*tensor.Tensor
}

func cloneBatches(in map[int]*tensor.Tensor) map[int]*tensor.Tensor {
	out := make(map[int]*tensor.Tensor, len(in))
	for e, t := range in {
		out[e] = t.Clone()
	}
	return out
}

func (r *recordingExec) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	r.fwd = append(r.fwd, cloneBatches(batches))
	return r.inner.ForwardExperts(layer, batches)
}

func (r *recordingExec) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	r.bwd = append(r.bwd, cloneBatches(grads))
	return r.inner.BackwardExperts(layer, grads)
}

// TestBlockRoutingMatchesMapReference: the gate's flat routing arrays,
// the block's counting-sort dispatch, its per-token combine and gather and
// its per-expert scatter reproduce the map-based block (routing_ref_test.go)
// bit for bit — every Routing field, y, dx, every expert batch and output
// gradient, and the gate's gradient while it trains — over two passes that
// reuse the step-persistent buffers. Cases: E ∈ {3, 8}, k ∈ {1, 2, 3},
// n ∈ {1, 5, 128} tokens (n = 1 leaves experts with no token), random
// gates and inputs with and without tied scores, frozen and trainable
// gate (with the load-balancing term), at parallelism 1 and 2 with every
// row pass forced onto the team. k = 3 is the case in which the order of
// a token's terms shows in its sum.
func TestBlockRoutingMatchesMapReference(t *testing.T) {
	oldDeg, oldThr := tensor.Parallelism(), tensor.ParallelThreshold()
	t.Cleanup(func() {
		tensor.SetParallelism(oldDeg)
		tensor.SetParallelThreshold(oldThr)
	})
	tensor.SetParallelThreshold(1)
	for _, degree := range []int{1, 2} {
		tensor.SetParallelism(degree)
		for _, experts := range []int{3, 8} {
			for k := 1; k <= 3; k++ {
				for _, n := range []int{1, 5, 128} {
					for _, tied := range []bool{false, true} {
						for _, train := range []bool{false, true} {
							name := fmt.Sprintf("degree=%d/E=%d/k=%d/n=%d/tied=%v/train=%v", degree, experts, k, n, tied, train)
							t.Run(name, func(t *testing.T) { checkRouting(t, experts, k, n, tied, train) })
						}
					}
				}
			}
		}
	}
}

func checkRouting(t *testing.T, experts, k, n int, tied, train bool) {
	const d = 8
	seed := int64(experts*1009 + k*101 + n)
	build := func() (*Gate, [][]*Expert) {
		rng := rand.New(rand.NewSource(seed))
		g := newGate("g", rng, d, experts, k, train)
		if tied {
			// Expert 1's logit column is expert 0's, so their scores tie
			// exactly on every token.
			w := g.Proj.W.Value
			for i := 0; i < d; i++ {
				w.Set(w.At(i, 0), i, 1)
			}
		}
		return g, [][]*Expert{makeExperts(rng, 0, experts, d, 2*d)}
	}
	g, grid := build()
	blk := newBlock(0, rand.New(rand.NewSource(0)), d, experts, k, train)
	blk.Gate = g
	exec := &recordingExec{inner: newLocalExecutor(grid)}
	blk.Exec = exec
	rg, rgrid := build()
	ref := &refBlock{Gate: rg, numExperts: experts}
	rexec := &recordingExec{inner: newLocalExecutor(rgrid)}
	ref.Exec = rexec
	if train {
		blk.AuxLossCoef, ref.AuxLossCoef = 0.01, 0.01
	}

	rng := rand.New(rand.NewSource(seed + 1))
	for pass := 0; pass < 2; pass++ {
		x, dy := tensor.Randn(rng, 1, n, d), tensor.Randn(rng, 1, n, d)
		if tied {
			// A zero row has all-equal logits: every score of the token ties.
			clear(x.Row(0))
		}
		y, err := blk.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		wy, err := ref.Forward(x)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, want := blk.LastRouting(), ref.routing
		for tok := 0; tok < n; tok++ {
			if !slices.Equal(got.Experts[tok], want.Experts[tok]) {
				t.Fatalf("pass %d: token %d routed to %v, reference %v", pass, tok, got.Experts[tok], want.Experts[tok])
			}
		}
		for _, c := range []struct {
			what      string
			want, got []float64
		}{
			{"Weights", slices.Concat(want.Weights...), slices.Concat(got.Weights...)},
			{"Scores", want.Scores.Data, got.Scores.Data},
			{"SelectedMass", want.SelectedMass, got.SelectedMass},
			{"y", wy.Data, y.Data},
		} {
			if !testutil.BitEqualSlices(c.want, c.got) {
				t.Fatalf("pass %d: %s differs from the reference's bits", pass, c.what)
			}
		}
		dx, err := blk.Backward(dy)
		if err != nil {
			t.Fatal(err)
		}
		wdx, err := ref.Backward(dy)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !testutil.BitEqualSlices(wdx.Data, dx.Data) {
			t.Fatalf("pass %d: dx differs from the reference's bits", pass)
		}
		if train && !testutil.BitEqualSlices(rg.Proj.W.Grad.Data, g.Proj.W.Grad.Data) {
			t.Fatalf("pass %d: gate gradient differs from the reference's bits", pass)
		}
	}
	for _, c := range []struct {
		what      string
		want, got []map[int]*tensor.Tensor
	}{{"batch", rexec.fwd, exec.fwd}, {"output gradient", rexec.bwd, exec.bwd}} {
		for pass := range c.want {
			if len(c.got[pass]) != len(c.want[pass]) {
				t.Fatalf("pass %d: %d experts got a %s, reference %d", pass, len(c.got[pass]), c.what, len(c.want[pass]))
			}
			for e, wt := range c.want[pass] {
				gt, ok := c.got[pass][e]
				if !ok || !gt.SameShape(wt) || !testutil.BitEqualSlices(wt.Data, gt.Data) {
					t.Fatalf("pass %d: expert %d's %s differs from the reference's", pass, e, c.what)
				}
			}
		}
	}
}
