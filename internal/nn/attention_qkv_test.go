package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// sequentialForward is Attention.Forward with Wq, Wk and Wv run one after
// another, as they ran before they went side by side: the reference
// TestAttentionProjectionsMatchSequential holds the side-by-side ones to.
func sequentialForward(a *Attention, x *tensor.Tensor, batch, seqLen int) *tensor.Tensor {
	a.batch, a.seqLen = batch, seqLen
	a.q = a.Wq.Forward(x)
	a.k = a.Wk.Forward(x)
	a.v = a.Wv.Forward(x)
	return a.attend()
}

// sequentialBackward is Attention.Backward with the projections one after
// another, dx summed q, then k, then v.
func sequentialBackward(a *Attention, dy *tensor.Tensor) *tensor.Tensor {
	a.backwardQKV(dy)
	dx := a.Wq.Backward(a.dq)
	dx.AddInPlace(a.Wk.Backward(a.dk))
	dx.AddInPlace(a.Wv.Backward(a.dv))
	return dx
}

// sequentialBackwardParams is Attention.BackwardParams with the
// projections one after another.
func sequentialBackwardParams(a *Attention, dy *tensor.Tensor) {
	a.backwardQKV(dy)
	a.Wq.backwardGrads(a.dq)
	a.Wk.backwardGrads(a.dk)
	a.Wv.backwardGrads(a.dv)
}

// TestAttentionProjectionsMatchSequential: Wq, Wk and Wv run side by side
// give y, dx and every parameter gradient bit for bit as the sequential
// projections do — frozen base weights with rank-8 adapters (the
// fine-tuning layout) and trainable ones, two accumulating passes through
// Backward and one through BackwardParams — with every tile body, at
// parallelism 1 and 2 with every kernel and fan-out forced onto the team.
func TestAttentionProjectionsMatchSequential(t *testing.T) {
	type geom struct{ d, heads, batch, seqLen int }
	geoms := []geom{{16, 2, 2, 8}, {128, 4, 4, 32}}
	if testing.Short() || testutil.RaceEnabled {
		geoms = geoms[:1]
	}
	oldDeg, oldThr := tensor.Parallelism(), tensor.ParallelThreshold()
	t.Cleanup(func() {
		tensor.SetParallelism(oldDeg)
		tensor.SetParallelThreshold(oldThr)
	})
	tensor.SetParallelThreshold(1)
	tensor.ForEachTileBody(func(body string) {
		for _, degree := range []int{1, 2} {
			tensor.SetParallelism(degree)
			for _, g := range geoms {
				for _, lora := range []bool{false, true} {
					name := fmt.Sprintf("%s body, degree %d, d=%d, %d heads, %d×%d, LoRA %v", body, degree, g.d, g.heads, g.batch, g.seqLen, lora)
					checkProjections(t, name, g.d, g.heads, g.batch, g.seqLen, lora)
				}
			}
		}
	})
}

func checkProjections(t *testing.T, name string, d, heads, batch, seqLen int, lora bool) {
	t.Helper()
	build := func() *Attention {
		rng := rand.New(rand.NewSource(int64(d*31 + batch)))
		a := NewAttention("a", rng, d, heads, true)
		if lora {
			for _, l := range a.Linears() {
				l.AttachLoRA(rng, 8, 16)
				l.LoRA.B.Value = tensor.Randn(rng, 0.5, 8, d)
			}
		}
		return a
	}
	a, ref := build(), build()
	rng := rand.New(rand.NewSource(int64(seqLen)))
	rows := batch * seqLen
	for pass := 0; pass < 3; pass++ {
		x, dy := tensor.Randn(rng, 1, rows, d), tensor.Randn(rng, 1, rows, d)
		y := a.Forward(x, batch, seqLen).Clone()
		wy := sequentialForward(ref, x, batch, seqLen)
		var dx, wdx *tensor.Tensor
		if pass < 2 {
			dx, wdx = a.Backward(dy), sequentialBackward(ref, dy)
		} else {
			a.BackwardParams(dy)
			sequentialBackwardParams(ref, dy)
		}
		checks := []struct {
			what      string
			want, got *tensor.Tensor
		}{{"y", wy, y}, {"dx", wdx, dx}}
		for i, p := range ref.Params() {
			if p.Trainable {
				checks = append(checks, struct {
					what      string
					want, got *tensor.Tensor
				}{p.Name + " grad", p.Grad, a.Params()[i].Grad})
			}
		}
		for _, c := range checks {
			if c.want == nil {
				continue
			}
			if n := mismatches(c.want.Data, c.got.Data); n > 0 {
				t.Errorf("%s, pass %d: %s has %d of %d elements off the sequential projections' bits", name, pass, c.what, n, len(c.want.Data))
			}
		}
	}
}

// TestHeadSetIsZeroPlus: a head block lands as +0 + value, what the
// zeroed accumulator it replaced held — a −0 lands as +0, which a plain
// copy (or a compiler folding the add) would not give.
func TestHeadSetIsZeroPlus(t *testing.T) {
	a := NewAttention("a", rand.New(rand.NewSource(1)), 4, 2, false)
	a.seqLen = 2
	m, hm := tensor.Full(7, 4, 4), tensor.Zeros(2, 2)
	hm.Data = []float64{math.Copysign(0, -1), 1.5, -2, math.Copysign(0, -1)}
	a.headSet(m, hm, 1, 1)
	want := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 1.5, 7, 7, -2, 0}
	if !testutil.BitEqualSlices(want, m.Data) {
		t.Fatalf("headSet wrote %v, want %v with +0 for each −0", m.Data, want)
	}
}
