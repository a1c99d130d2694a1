package moe

import (
	"fmt"

	"repro/internal/tensor"
)

// The map-based routing the dispatch plan replaced, kept as the reference
// Block's routing must match bit for bit (TestBlockRoutingMatchesMapReference).
// refGateForward is the per-token Gate.Forward, refBlock the Block whose
// dispatch grouped tokens in a map per expert and whose combine looked
// each weight up by a linear search; both are the replaced code with only
// the receiver changed.

// argTopKAppend is tensor.ArgTopK as it was before it wrapped
// ArgTopKInto: one appended result slice per call.
func argTopKAppend(v []float64, k int) []int {
	idx := make([]int, 0, k)
	if k == 0 {
		return idx
	}
	for i, x := range v {
		if len(idx) == k {
			if x <= v[idx[k-1]] {
				continue
			}
			idx = idx[:k-1]
		}
		p := len(idx)
		for p > 0 && v[idx[p-1]] < x {
			p--
		}
		idx = append(idx, 0)
		copy(idx[p+1:], idx[p:])
		idx[p] = i
	}
	return idx
}

// refGateForward routes x with two slices per token.
func refGateForward(g *Gate, x *tensor.Tensor) *Routing {
	logits := g.Proj.Forward(x)
	scores := logits.SoftmaxRows()
	n := x.Rows()
	r := &Routing{
		Experts:      make([][]int, n),
		Weights:      make([][]float64, n),
		Scores:       scores,
		SelectedMass: make([]float64, n),
	}
	for t := 0; t < n; t++ {
		row := scores.Row(t)
		sel := argTopKAppend(row, g.TopK)
		var mass float64
		for _, e := range sel {
			mass += row[e]
		}
		w := make([]float64, len(sel))
		for j, e := range sel {
			w[j] = row[e] / mass
		}
		r.Experts[t] = sel
		r.Weights[t] = w
		r.SelectedMass[t] = mass
	}
	return r
}

// refBlock is the map-based MoE block.
type refBlock struct {
	Layer       int
	Gate        *Gate
	Exec        Executor
	AuxLossCoef float64

	numExperts int
	routing    *Routing
	positions  map[int][]int
	outs       map[int]*tensor.Tensor
	batches    map[int]*tensor.Tensor
	y, dx      *tensor.Tensor
}

func (b *refBlock) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, d := x.Rows(), x.Cols()
	r := refGateForward(b.Gate, x)
	b.routing = r

	b.positions = make(map[int][]int)
	for t := 0; t < n; t++ {
		for _, e := range r.Experts[t] {
			b.positions[e] = append(b.positions[e], t)
		}
	}
	batches := make(map[int]*tensor.Tensor, len(b.positions))
	for e, toks := range b.positions {
		m := tensor.GetDirty(len(toks), d)
		for i, t := range toks {
			copy(m.Row(i), x.Row(t))
		}
		batches[e] = m
	}
	b.batches = batches

	outs, err := b.Exec.ForwardExperts(b.Layer, batches)
	if err != nil {
		return nil, err
	}
	if b.gateTrainable() {
		b.outs = outs
	}

	y := tensor.Ensure(&b.y, n, d)
	y.Zero()
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		out, ok := outs[e]
		if !ok {
			return nil, fmt.Errorf("missing output for expert %d", e)
		}
		for i, t := range toks {
			w := refWeightFor(r, t, e)
			yr, or := y.Row(t), out.Row(i)
			for j := 0; j < d; j++ {
				yr[j] += w * or[j]
			}
		}
	}
	return y, nil
}

func refWeightFor(r *Routing, t, e int) float64 {
	for j, se := range r.Experts[t] {
		if se == e {
			return r.Weights[t][j]
		}
	}
	panic(fmt.Sprintf("expert %d not selected for token %d", e, t))
}

func (b *refBlock) gateTrainable() bool { return b.Gate.Proj.W.Trainable }

func (b *refBlock) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	n, d := dy.Rows(), dy.Cols()
	r := b.routing

	grads := make(map[int]*tensor.Tensor, len(b.positions))
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		g := tensor.GetDirty(len(toks), d)
		for i, t := range toks {
			w := refWeightFor(r, t, e)
			gr, dr := g.Row(i), dy.Row(t)
			for j := 0; j < d; j++ {
				gr[j] = w * dr[j]
			}
		}
		grads[e] = g
	}

	dxs, err := b.Exec.BackwardExperts(b.Layer, grads)
	if err != nil {
		return nil, err
	}
	for _, g := range grads {
		tensor.Put(g)
	}
	for _, m := range b.batches {
		tensor.Put(m)
	}
	b.batches = nil

	dx := tensor.Ensure(&b.dx, n, d)
	dx.Zero()
	for e := 0; e < b.numExperts; e++ {
		toks, routed := b.positions[e]
		if !routed {
			continue
		}
		dxe, ok := dxs[e]
		if !ok {
			return nil, fmt.Errorf("missing input grad for expert %d", e)
		}
		for i, t := range toks {
			dr, sr := dx.Row(t), dxe.Row(i)
			for j := 0; j < d; j++ {
				dr[j] += sr[j]
			}
		}
	}

	if b.gateTrainable() {
		dx.AddInPlace(b.gateBackward(dy))
	}
	b.routing, b.positions, b.outs = nil, nil, nil
	return dx, nil
}

func (b *refBlock) gateBackward(dy *tensor.Tensor) *tensor.Tensor {
	r := b.routing
	n := dy.Rows()
	e := b.numExperts

	rowOf := make(map[int]map[int]int, len(b.positions))
	for ex, toks := range b.positions {
		m := make(map[int]int, len(toks))
		for i, t := range toks {
			m[t] = i
		}
		rowOf[ex] = m
	}

	dp := tensor.Zeros(n, e)
	for t := 0; t < n; t++ {
		sel := r.Experts[t]
		mass := r.SelectedMass[t]
		a := make([]float64, len(sel))
		for j, ex := range sel {
			out := b.outs[ex].Row(rowOf[ex][t])
			dr := dy.Row(t)
			var dot float64
			for k := range dr {
				dot += dr[k] * out[k]
			}
			a[j] = dot
		}
		for i, ei := range sel {
			var g float64
			for j := range sel {
				delta := 0.0
				if i == j {
					delta = 1
				}
				g += a[j] * (delta - r.Weights[t][j]) / mass
			}
			dp.Set(g, t, ei)
		}
	}

	if b.AuxLossCoef > 0 {
		frac := make([]float64, e)
		var routings float64
		for ex, toks := range b.positions {
			frac[ex] = float64(len(toks))
			routings += float64(len(toks))
		}
		for ex := range frac {
			frac[ex] /= routings
		}
		k := b.AuxLossCoef * float64(e) / float64(n)
		for t := 0; t < n; t++ {
			row := dp.Row(t)
			for ex := 0; ex < e; ex++ {
				row[ex] += k * frac[ex]
			}
		}
	}

	dlogits := tensor.Zeros(n, e)
	for t := 0; t < n; t++ {
		p := r.Scores.Row(t)
		dpr := dp.Row(t)
		var dot float64
		for k := 0; k < e; k++ {
			dot += p[k] * dpr[k]
		}
		dl := dlogits.Row(t)
		for k := 0; k < e; k++ {
			dl[k] = p[k] * (dpr[k] - dot)
		}
	}
	return b.Gate.backwardLogits(dlogits)
}
