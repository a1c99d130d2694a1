// Package broker implements VELA's distributed fine-tuning framework
// (§IV-A): the Expert Broker that detaches expert layers from the model
// backbone, the master-side executor that dispatches token batches and
// gradients to workers, and the Expert Manager worker process that hosts
// expert shards, serves forward/backward requests, and runs its local
// optimizer.
package broker

import (
	"fmt"
	"math/rand"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// maxMomentPairs bounds the per-expert moment-pair count a decoder will
// accept, guarding the tensor-count arithmetic against a corrupted
// metadata row (an expert has a handful of trainable parameters, not
// thousands).
const maxMomentPairs = 1 << 10

// ExpertSpec describes the architecture of a shipped expert so the
// receiving worker can rebuild it before loading weights.
type ExpertSpec struct {
	D         int
	Hidden    int
	LoRARank  int     // 0 = no adapter
	LoRAAlpha float64 // meaningful when LoRARank > 0
}

// PayloadBytes estimates the wire payload of one expert under this spec:
// the three SwiGLU projection matrices plus, when LoRA is attached, an
// A/B adapter pair per projection, all shipped as float64. This is the
// per-move transfer size the re-placement controller's migration-cost
// model uses (headers and the metadata row are negligible next to the
// weight matrices and are ignored).
func (s ExpertSpec) PayloadBytes() float64 {
	values := 3 * s.D * s.Hidden
	if s.LoRARank > 0 {
		values += 3 * s.LoRARank * (s.D + s.Hidden)
	}
	return 8 * float64(values)
}

// expertOptState is the worker-local optimizer slice that rides with an
// expert on the wire: the AdamW bias-correction clock and one (m, v)
// moment pair per trainable parameter, in nn.CollectTrainable order. A
// nil state (or one with no pairs) means "no optimizer state shipped" —
// the receiver starts the expert with fresh moments.
type expertOptState struct {
	Step int
	M, V []wire.Matrix
}

// encodeExpertState serializes an expert into a MsgAssign message: a
// 6-column metadata row [D, Hidden, LoRARank, LoRAAlpha, numMomentPairs,
// optStep], every parameter tensor in Params() order, then the (m, v)
// moment-tensor pairs when opt is non-nil.
func encodeExpertState(e *moe.Expert, spec ExpertSpec, opt *expertOptState) *wire.Message {
	m := &wire.Message{
		Type:   wire.MsgAssign,
		Layer:  int32(e.ID.Layer),
		Expert: int32(e.ID.Expert),
	}
	pairs, step := 0, 0
	if opt != nil {
		pairs, step = len(opt.M), opt.Step
	}
	meta := wire.Matrix{Rows: 1, Cols: 6, Data: []float64{
		float64(spec.D), float64(spec.Hidden), float64(spec.LoRARank), spec.LoRAAlpha,
		float64(pairs), float64(step),
	}}
	m.Tensors = append(m.Tensors, meta)
	for _, p := range e.Params() {
		m.Tensors = append(m.Tensors, matrixOf(p.Value))
	}
	for i := 0; i < pairs; i++ {
		m.Tensors = append(m.Tensors, opt.M[i], opt.V[i])
	}
	return m
}

// encodeExpert is encodeExpertState without optimizer state: the initial
// Distribute ships freshly built experts whose moments are zero anyway.
func encodeExpert(e *moe.Expert, spec ExpertSpec) *wire.Message {
	return encodeExpertState(e, spec, nil)
}

// encodeExpertCopy is encodeExpertState with every tensor deep-copied.
// Snapshot replies must not alias live parameter or moment memory: over
// the in-process transport the message travels by pointer, and an
// aliased snapshot would keep mutating as training continues — the
// restored state after a failover would then be whatever the weights
// drifted to, not the step boundary the snapshot named.
func encodeExpertCopy(e *moe.Expert, spec ExpertSpec, opt *expertOptState) *wire.Message {
	m := encodeExpertState(e, spec, opt)
	for i := range m.Tensors {
		m.Tensors[i].Data = append([]float64(nil), m.Tensors[i].Data...)
	}
	return m
}

// decodeExpertState rebuilds an expert from a MsgAssign message, plus the
// optimizer slice when the message carries one (nil otherwise). The
// rebuild uses a throwaway RNG — every weight is immediately overwritten
// by the shipped values, so the architecture is all that matters.
func decodeExpertState(m *wire.Message) (*moe.Expert, ExpertSpec, *expertOptState, error) {
	if m.Type != wire.MsgAssign {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: decodeExpert on %v message", m.Type)
	}
	if len(m.Tensors) < 1 || m.Tensors[0].Rows != 1 || m.Tensors[0].Cols != 6 {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: assign message missing metadata")
	}
	meta := m.Tensors[0].Data
	spec := ExpertSpec{
		D:         int(meta[0]),
		Hidden:    int(meta[1]),
		LoRARank:  int(meta[2]),
		LoRAAlpha: meta[3],
	}
	if spec.D <= 0 || spec.Hidden <= 0 {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: invalid expert spec %+v", spec)
	}
	pairs, optStep := int(meta[4]), int(meta[5])
	if pairs < 0 || pairs > maxMomentPairs || optStep < 0 {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: implausible optimizer state (%d pairs, step %d)",
			pairs, optStep)
	}
	id := moe.ExpertID{Layer: int(m.Layer), Expert: int(m.Expert)}
	rng := rand.New(rand.NewSource(1))
	ex := moe.NewExpert(id, rng, spec.D, spec.Hidden, true)
	if spec.LoRARank > 0 {
		ex.AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
	}
	params := ex.Params()
	if len(m.Tensors)-1 != len(params)+2*pairs {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: assign carries %d tensors, expert has %d params and %d moment pairs",
			len(m.Tensors)-1, len(params), pairs)
	}
	for i, p := range params {
		src := m.Tensors[i+1]
		if src.Rows*src.Cols != p.Value.Len() {
			return nil, ExpertSpec{}, nil, fmt.Errorf("broker: param %d size mismatch (%dx%d vs %d)",
				i, src.Rows, src.Cols, p.Value.Len())
		}
		copy(p.Value.Data, src.Data)
	}
	if pairs == 0 {
		return ex, spec, nil, nil
	}
	trainable := nn.CollectTrainable(params)
	if pairs != len(trainable) {
		return nil, ExpertSpec{}, nil, fmt.Errorf("broker: assign carries %d moment pairs, expert has %d trainable params",
			pairs, len(trainable))
	}
	st := &expertOptState{Step: optStep}
	for i := 0; i < pairs; i++ {
		mm, vv := m.Tensors[1+len(params)+2*i], m.Tensors[2+len(params)+2*i]
		want := trainable[i].Value.Len()
		if mm.Rows*mm.Cols != want || vv.Rows*vv.Cols != want {
			return nil, ExpertSpec{}, nil, fmt.Errorf("broker: moment pair %d size mismatch (%d/%d vs %d)",
				i, mm.Rows*mm.Cols, vv.Rows*vv.Cols, want)
		}
		st.M = append(st.M, mm)
		st.V = append(st.V, vv)
	}
	return ex, spec, st, nil
}

// matrixOf views a tensor as a wire matrix (2-D as-is, otherwise as a
// single row).
func matrixOf(t *tensor.Tensor) wire.Matrix {
	if t.Dims() == 2 {
		return wire.Matrix{Rows: t.Dim(0), Cols: t.Dim(1), Data: t.Data}
	}
	return wire.Matrix{Rows: 1, Cols: t.Len(), Data: t.Data}
}

// matrixCopyOf is matrixOf with the data copied out. Required for reply
// payloads built from a layer's step-persistent output buffer: the buffer
// is overwritten by the expert's next request, which over the in-process
// transport may happen while the master is still reading this reply.
func matrixCopyOf(t *tensor.Tensor) wire.Matrix {
	m := matrixOf(t)
	m.Data = append([]float64(nil), m.Data...)
	return m
}

// tensorOf converts a wire matrix into a tensor.
func tensorOf(m wire.Matrix) *tensor.Tensor {
	return tensor.New(m.Data, m.Rows, m.Cols)
}

// checksumParams produces a stable diagnostic vector (Σ value, Σ grad,
// count) over a parameter list.
func checksumParams(params []*nn.Param) []float64 {
	var v, g float64
	n := 0
	for _, p := range params {
		v += p.Value.Sum()
		g += p.Grad.Sum()
		n += p.Value.Len()
	}
	return []float64{v, g, float64(n)}
}
