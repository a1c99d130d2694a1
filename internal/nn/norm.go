package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// RMSNorm is root-mean-square layer normalization with a learnable gain,
// the normalization used by Mistral-family backbones:
//
//	y_i = g_i · x_i / sqrt(mean_j(x_j²) + eps)
type RMSNorm struct {
	Name string
	Gain *Param // [d]
	Eps  float64

	x    *tensor.Tensor // cached input
	rinv []float64      // cached 1/rms per row

	// Step-persistent output and input-gradient buffers (tensor.Ensure).
	y, dx *tensor.Tensor
	// a and b are AddForward's summands while its row pass runs; dy, out
	// and add are the backward pass's gradient, destination and mode.
	a, b, dy, out *tensor.Tensor
	add           bool

	// forwardJob, backwardJob are forwardRows and backwardRows bound once,
	// so a step hands the team no fresh closure.
	forwardJob, backwardJob func(lo, hi int)
}

// normRowCost and normBackRowCost are the work (units of
// tensor.DefaultParallelThreshold) per element of the forward and
// backward row passes. Each row's sum of squares (and the backward's dot
// product) is one dependent chain of adds, each waiting out the last one's
// latency, so an element costs several units, not one: 2.0 and 3.2 ns at
// 128×128 on one core, the add fused in.
const (
	normRowCost     = 5
	normBackRowCost = 8
)

// NewRMSNorm constructs an RMSNorm over feature size d with gain
// initialized to 1.
func NewRMSNorm(name string, d int, trainable bool) *RMSNorm {
	n := &RMSNorm{
		Name: name,
		Gain: newParam(name+".gain", tensor.Full(1, d), trainable),
		Eps:  1e-6,
	}
	n.forwardJob, n.backwardJob = n.forwardRows, n.backwardRows
	return n
}

// Params implements Module.
func (n *RMSNorm) Params() []*Param { return []*Param{n.Gain} }

// Forward normalizes each row of x ([rows, d]).
func (n *RMSNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.forward(x)
}

// AddForward is the residual add fused into the norm: it writes a + b into
// sum and returns Forward(sum), in one pass over each row. sum becomes
// the norm's cached input, so it must stay intact until Backward.
func (n *RMSNorm) AddForward(a, b, sum *tensor.Tensor) *tensor.Tensor {
	if !a.SameShape(b) || !a.SameShape(sum) {
		panic(fmt.Sprintf("nn: %s AddForward got %v + %v into %v", n.Name, a.Shape(), b.Shape(), sum.Shape()))
	}
	n.a, n.b = a, b
	y := n.forward(sum)
	n.a, n.b = nil, nil
	return y
}

// forward normalizes x's rows, summing n.a and n.b into them first when
// AddForward set them.
func (n *RMSNorm) forward(x *tensor.Tensor) *tensor.Tensor {
	rows, d := x.Rows(), x.Cols()
	mustShape(n.Gain.Value, d)
	n.x = x
	if cap(n.rinv) >= rows {
		n.rinv = n.rinv[:rows]
	} else {
		n.rinv = make([]float64, rows)
	}
	tensor.Ensure(&n.y, rows, d)
	tensor.ParallelRangeCost(rows, normRowCost*rows*d, n.forwardJob)
	return n.y
}

// forwardRows normalizes rows [lo, hi) of n.x into n.y, caching 1/rms per
// row; under AddForward each row is first the sum of n.a's and n.b's.
func (n *RMSNorm) forwardRows(lo, hi int) {
	x, y := n.x, n.y
	d := x.Cols()
	g := n.Gain.Value.Data
	for i := lo; i < hi; i++ {
		xr := x.Row(i)
		var ss float64
		if n.a != nil {
			ar, br := n.a.Row(i), n.b.Row(i)
			for j := range xr {
				v := ar[j] + br[j]
				xr[j] = v
				ss += v * v
			}
		} else {
			for _, v := range xr {
				ss += v * v
			}
		}
		rinv := 1 / math.Sqrt(ss/float64(d)+n.Eps)
		n.rinv[i] = rinv
		yr := y.Row(i)
		for j, v := range xr {
			yr[j] = g[j] * v * rinv
		}
	}
}

// Backward accumulates the gain gradient and returns dx.
//
// With r = rms(x), y_j = g_j·x_j/r:
//
//	dx_j = (g_j·dy_j)/r − x_j/(d·r³) · Σ_i dy_i·g_i·x_i
//	dg_j = Σ_rows dy_j·x_j/r
func (n *RMSNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if n.x == nil {
		panic("nn: RMSNorm Backward called before Forward")
	}
	return n.backward(dy, tensor.Ensure(&n.dx, n.x.Rows(), n.x.Cols()), false)
}

// BackwardAdd is Backward with the residual add fused in: it adds the
// input gradient into acc, as acc.AddInPlace(Backward(dy)) does, in the
// same row pass, and returns acc. acc must be neither dy nor the cached
// input.
func (n *RMSNorm) BackwardAdd(dy, acc *tensor.Tensor) *tensor.Tensor {
	if n.x == nil {
		panic("nn: RMSNorm Backward called before Forward")
	}
	if !acc.SameShape(n.x) {
		panic(fmt.Sprintf("nn: %s BackwardAdd into %v, want %v", n.Name, acc.Shape(), n.x.Shape()))
	}
	return n.backward(dy, acc, true)
}

// backward writes the input gradient into dx, or adds it there under add,
// accumulates the gain gradient, and returns dx.
func (n *RMSNorm) backward(dy, dx *tensor.Tensor, add bool) *tensor.Tensor {
	x := n.x
	rows, d := x.Rows(), x.Cols()
	n.dy, n.out, n.add = dy, dx, add
	tensor.ParallelRangeCost(rows, normBackRowCost*rows*d, n.backwardJob)
	n.dy, n.out = nil, nil
	// The gain gradient reduces across rows into one shared vector, so it
	// stays serial: partitioning by row would give the accumulator
	// multiple owners and break bit-determinism.
	if n.Gain.Trainable {
		gg := n.Gain.Grad.Data
		for i := 0; i < rows; i++ {
			xr, dyr := x.Row(i), dy.Row(i)
			rinv := n.rinv[i]
			for j := 0; j < d; j++ {
				gg[j] += dyr[j] * xr[j] * rinv
			}
		}
	}
	n.x = nil
	return dx
}

// backwardRows computes the input gradient for rows [lo, hi) from n.dy
// into n.out, or adds it there under n.add.
func (n *RMSNorm) backwardRows(lo, hi int) {
	x, dy, dx := n.x, n.dy, n.out
	d := x.Cols()
	g := n.Gain.Value.Data
	for i := lo; i < hi; i++ {
		xr, dyr, dxr := x.Row(i), dy.Row(i), dx.Row(i)
		rinv := n.rinv[i]
		var dot float64
		for j := 0; j < d; j++ {
			dot += dyr[j] * g[j] * xr[j]
		}
		k := dot * rinv * rinv * rinv / float64(d)
		if n.add {
			for j := 0; j < d; j++ {
				v := dyr[j]*g[j]*rinv - xr[j]*k
				dxr[j] += v
			}
			continue
		}
		for j := 0; j < d; j++ {
			dxr[j] = dyr[j]*g[j]*rinv - xr[j]*k
		}
	}
}

// Embedding maps token ids to dense rows of a [vocab, d] table.
type Embedding struct {
	Name  string
	Table *Param

	ids []int          // cached ids from the last Forward
	y   *tensor.Tensor // step-persistent output buffer
}

// NewEmbedding constructs an embedding table initialized from N(0, 0.02²).
func NewEmbedding(name string, rng interface {
	NormFloat64() float64
}, vocab, d int, trainable bool) *Embedding {
	t := tensor.Zeros(vocab, d)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * 0.02
	}
	return &Embedding{Name: name, Table: newParam(name+".table", t, trainable)}
}

// Params implements Module.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Forward gathers the rows for ids into a [len(ids), d] tensor.
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	d := e.Table.Value.Cols()
	e.ids = ids
	y := tensor.Ensure(&e.y, len(ids), d)
	for i, id := range ids {
		copy(y.Row(i), e.Table.Value.Row(id))
	}
	return y
}

// Backward scatters dy back into the table gradient.
func (e *Embedding) Backward(dy *tensor.Tensor) {
	if !e.Table.Trainable {
		e.ids = nil
		return
	}
	for i, id := range e.ids {
		gr := e.Table.Grad.Row(id)
		dr := dy.Row(i)
		for j := range gr {
			gr[j] += dr[j]
		}
	}
	e.ids = nil
}
