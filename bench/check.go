package bench

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/tensor"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// quantExec is the reference for a lossy wire encoding: the local
// executor, with every batch rounded to the values the encoding
// reproduces on the way in and on the way out — what a worker and the
// master observe across the wire, without broker, wire or transport.
type quantExec struct {
	inner moe.Executor
	enc   wire.Encoding
}

func (q quantExec) round(in map[int]*tensor.Tensor, copyFirst bool) map[int]*tensor.Tensor {
	out := make(map[int]*tensor.Tensor, len(in))
	for e, t := range in {
		if copyFirst {
			// An expert's output is its own reused buffer.
			t = t.Clone()
		}
		m := wire.Matrix{Rows: t.Rows(), Cols: t.Cols(), Data: t.Data, Enc: q.enc}
		m.Quantize()
		out[e] = t
	}
	return out
}

// ForwardExperts implements moe.Executor.
func (q quantExec) ForwardExperts(layer int, batches map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	out, err := q.inner.ForwardExperts(layer, q.round(batches, false))
	if err != nil {
		return nil, err
	}
	return q.round(out, true), nil
}

// BackwardExperts implements moe.Executor.
func (q quantExec) BackwardExperts(layer int, grads map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	out, err := q.inner.BackwardExperts(layer, q.round(grads, false))
	if err != nil {
		return nil, err
	}
	return q.round(out, true), nil
}

// ReferenceLosses recomputes the first steps of the workload's loss
// series in-process, without broker, wire or transport: the
// local_baseline path, with the wire encoding's rounding applied at the
// executor boundary when the workload's encoding is lossy. Placement,
// link shaping, checkpoints and rebalances must not change a single bit
// of the loss, so every workload's series has to equal its reference —
// and shaped_sequential and shaped_locality, which share one reference,
// each other.
func ReferenceLosses(w Workload, seed int64, steps int) ([]float64, error) {
	model, grid := newCheckpoint(w.Cfg, seed)
	local := model.BindLocalExperts(grid)
	ft := trainer.NewLocalFinetuner(model, local, newBatcher(w, data.WikiText(corpusTokens), seed))
	if w.Brokered() && w.Encoding != wire.EncFP64 {
		model.SetExecutor(quantExec{inner: local, enc: w.Encoding})
	}
	for i := 0; i < steps; i++ {
		if _, err := ft.Step(); err != nil {
			return nil, fmt.Errorf("bench: reference step %d: %w", i, err)
		}
	}
	return ft.Losses.Values, nil
}

// LossCheck compares the measured loss series with the reference on the
// reference's length and returns a description of the first violation,
// or "" when the series is finite and bit-identical.
func LossCheck(got, ref []float64) string {
	if len(got) < len(ref) {
		return fmt.Sprintf("loss series has %d steps, reference %d", len(got), len(ref))
	}
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("loss at step %d is %v", i, v)
		}
	}
	for i, want := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			return fmt.Sprintf("loss diverges from the reference at step %d: %.17g vs %.17g", i, got[i], want)
		}
	}
	return ""
}
