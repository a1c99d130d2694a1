// Package broker implements VELA's distributed fine-tuning framework
// (§IV-A): the Expert Broker that detaches expert layers from the model
// backbone, the master-side executor that dispatches token batches and
// gradients to workers, and the Expert Manager worker process that hosts
// expert shards, serves forward/backward requests, and runs its local
// optimizer.
package broker

import (
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Expert state on the wire and at rest is one tensor list, an *entry*: a
// metadata row, parameter tensors in Params() order, then one (m, v)
// AdamW moment pair per trainable parameter. It comes in two layouts,
// told apart by the width of the metadata row:
//
//	full   [D, Hidden, LoRARank, LoRAAlpha, numMomentPairs, optStep]
//	       followed by every parameter. MsgAssign always carries this.
//	delta  the same six columns plus baseSum, followed by the trainable
//	       parameters only. MsgSnapshotResult carries this for an expert
//	       with frozen parameters, and so does everything built from
//	       snapshots: Supervisor.latest and a run generation's expert
//	       section.
//
// The frozen parameters a delta leaves out — the *base*: under LoRA the
// three projection matrices, 80% of a full entry at d=128/h=352/r=8 and
// 97% at the paper's d=1024/h=2816 — never change after Distribute, so
// they cross a link once. The master keeps
// views of them (Executor.SetBase) and Executor.compose puts them back
// wherever a worker needs the weights. baseSum, the CRC32C of the base the
// delta was trained over, is what makes that safe: a delta is only ever
// composed with the bits it names. An expert with nothing frozen has no
// delta layout; its snapshot is a full entry.

// maxMomentPairs bounds the per-expert moment-pair count a decoder will
// accept, guarding the tensor-count arithmetic against a corrupted
// metadata row (an expert has a handful of trainable parameters, not
// thousands). maxExpertDim bounds D, Hidden and the LoRA rank the same
// way, so the shape arithmetic cannot overflow.
const (
	maxMomentPairs = 1 << 10
	maxExpertDim   = 1 << 20
)

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

// paramShape is one parameter of an expert's canonical list.
type paramShape struct {
	rows, cols int
	frozen     bool
}

// layout lists the parameters of an expert built under s, in Params()
// order: per projection (w1 and w3 D×Hidden, w2 Hidden×D) the weight,
// then the LoRA A/B pair when an adapter is attached — which is also what
// freezes the weight. It lets a decoder check an entry against the
// payload that was actually shipped before it builds anything.
func (s ExpertSpec) layout() []paramShape {
	var ps []paramShape
	for _, io := range [3][2]int{{s.D, s.Hidden}, {s.D, s.Hidden}, {s.Hidden, s.D}} {
		ps = append(ps, paramShape{io[0], io[1], s.LoRARank > 0})
		if s.LoRARank > 0 {
			ps = append(ps, paramShape{io[0], s.LoRARank, false}, paramShape{s.LoRARank, io[1], false})
		}
	}
	return ps
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

// expertEntry is a parsed entry: tensors() is the one encoder of both
// layouts and parseEntry the one decoder.
type expertEntry struct {
	spec ExpertSpec
	// delta says params holds the trainable parameters only, and baseSum
	// names the frozen ones left out.
	delta   bool
	baseSum uint32
	params  []wire.Matrix
	opt     *expertOptState // nil = none shipped
}

// tensors lays the entry out as the tensor list that travels.
func (en *expertEntry) tensors() []wire.Matrix {
	pairs, step := 0, 0
	if en.opt != nil {
		pairs, step = len(en.opt.M), en.opt.Step
	}
	meta := []float64{
		float64(en.spec.D), float64(en.spec.Hidden), float64(en.spec.LoRARank), en.spec.LoRAAlpha,
		float64(pairs), float64(step),
	}
	if en.delta {
		meta = append(meta, float64(en.baseSum))
	}
	ts := make([]wire.Matrix, 0, 1+len(en.params)+2*pairs)
	ts = append(ts, wire.Matrix{Rows: 1, Cols: len(meta), Data: meta})
	ts = append(ts, en.params...)
	for i := 0; i < pairs; i++ {
		ts = append(ts, en.opt.M[i], en.opt.V[i])
	}
	return ts
}

// metaInt reads a metadata column that must hold an exact integer in
// [0, max].
func metaInt[T int | uint32](v float64, max T) (T, bool) {
	if !(v >= 0 && v <= float64(max) && v == math.Trunc(v)) {
		return 0, false
	}
	return T(v), true
}

// parseEntry checks a tensor list against the layout its own metadata
// row declares — dimensions, tensor count and every tensor's shape —
// and returns views into it. Nothing is allocated by the row's say-so:
// every size it claims must be matched by a tensor that was shipped.
func parseEntry(ts []wire.Matrix) (*expertEntry, error) {
	if len(ts) < 1 || ts[0].Rows != 1 || (ts[0].Cols != 6 && ts[0].Cols != 7) || len(ts[0].Data) != ts[0].Cols {
		return nil, fmt.Errorf("broker: expert entry missing its metadata row")
	}
	meta := ts[0].Data
	en := &expertEntry{delta: len(meta) == 7}
	d, okD := metaInt(meta[0], maxExpertDim)
	h, okH := metaInt(meta[1], maxExpertDim)
	r, okR := metaInt(meta[2], maxExpertDim)
	if !okD || !okH || !okR || d == 0 || h == 0 {
		return nil, fmt.Errorf("broker: invalid expert spec [D %v, Hidden %v, LoRARank %v]", meta[0], meta[1], meta[2])
	}
	en.spec = ExpertSpec{D: d, Hidden: h, LoRARank: r, LoRAAlpha: meta[3]}
	pairs, okP := metaInt(meta[4], maxMomentPairs)
	optStep, okS := metaInt(meta[5], math.MaxInt32)
	if !okP || !okS {
		return nil, fmt.Errorf("broker: implausible optimizer state (%v pairs, step %v)", meta[4], meta[5])
	}
	if en.delta {
		var ok bool
		if en.baseSum, ok = metaInt[uint32](meta[6], math.MaxUint32); !ok {
			return nil, fmt.Errorf("broker: delta entry's base digest %v is not a CRC32", meta[6])
		}
	}

	var shipped, trainable []paramShape
	for _, p := range en.spec.layout() {
		if !p.frozen {
			trainable = append(trainable, p)
		}
		if !p.frozen || !en.delta {
			shipped = append(shipped, p)
		}
	}
	if pairs != 0 && pairs != len(trainable) {
		return nil, fmt.Errorf("broker: entry carries %d moment pairs, expert has %d trainable params", pairs, len(trainable))
	}
	if len(ts)-1 != len(shipped)+2*pairs {
		return nil, fmt.Errorf("broker: entry carries %d tensors, its spec means %d params and %d moment pairs",
			len(ts)-1, len(shipped), pairs)
	}
	en.params = ts[1 : 1+len(shipped)]
	for i, p := range shipped {
		if t := en.params[i]; t.Rows != p.rows || t.Cols != p.cols || len(t.Data) != p.rows*p.cols {
			return nil, fmt.Errorf("broker: param %d is %dx%d (%d values), its spec means %dx%d",
				i, t.Rows, t.Cols, len(t.Data), p.rows, p.cols)
		}
	}
	if pairs == 0 {
		return en, nil
	}
	en.opt = &expertOptState{Step: optStep}
	for i, p := range trainable {
		mm, vv := ts[1+len(shipped)+2*i], ts[2+len(shipped)+2*i]
		if want := p.rows * p.cols; mm.Rows*mm.Cols != want || vv.Rows*vv.Cols != want || len(mm.Data) != want || len(vv.Data) != want {
			return nil, fmt.Errorf("broker: moment pair %d size mismatch (%d/%d vs %d)", i, len(mm.Data), len(vv.Data), want)
		}
		en.opt.M = append(en.opt.M, mm)
		en.opt.V = append(en.opt.V, vv)
	}
	return en, nil
}

// encodeExpertState serializes an expert into a MsgAssign message
// carrying its full entry: every parameter, then the moment pairs when
// opt is non-nil. The tensors alias e's.
func encodeExpertState(e *moe.Expert, spec ExpertSpec, opt *expertOptState) *wire.Message {
	en := &expertEntry{spec: spec, opt: opt}
	for _, p := range e.Params() {
		en.params = append(en.params, matrixOf(p.Value))
	}
	return &wire.Message{
		Type:    wire.MsgAssign,
		Layer:   int32(e.ID.Layer),
		Expert:  int32(e.ID.Expert),
		Tensors: en.tensors(),
	}
}

// encodeExpert is encodeExpertState without optimizer state: the initial
// Distribute ships freshly built experts whose moments are zero anyway.
func encodeExpert(e *moe.Expert, spec ExpertSpec) *wire.Message {
	return encodeExpertState(e, spec, nil)
}

// encodeExpertSnapshot serializes what a step changes about an expert —
// its trainable parameters and opt — as a delta entry naming baseSum; for
// an expert with nothing frozen that is everything, and the entry is a
// full one. The tensors alias e's and opt's live memory: the frame Send
// encodes from them is the copy, taken before the worker can step again.
func encodeExpertSnapshot(e *moe.Expert, spec ExpertSpec, opt *expertOptState, baseSum uint32) *wire.Message {
	params := e.Params()
	trainable := nn.CollectTrainable(params)
	en := &expertEntry{spec: spec, opt: opt, delta: len(trainable) < len(params), baseSum: baseSum}
	for _, p := range trainable {
		en.params = append(en.params, matrixOf(p.Value))
	}
	return &wire.Message{
		Type:    wire.MsgSnapshotResult,
		Layer:   int32(e.ID.Layer),
		Expert:  int32(e.ID.Expert),
		Tensors: en.tensors(),
	}
}

// decodeExpertState rebuilds an expert from a MsgAssign message and
// returns it with the parsed entry (spec, and the optimizer slice when
// the message carries one). The entry is validated against the shipped
// payload before anything is built; the build draws no random numbers,
// since every weight is the shipped one, and copies them, so the expert
// owns its weights whatever becomes of the message.
func decodeExpertState(m *wire.Message) (*moe.Expert, *expertEntry, error) {
	if m.Type != wire.MsgAssign {
		return nil, nil, fmt.Errorf("broker: decodeExpert on %v message", m.Type)
	}
	en, err := parseEntry(m.Tensors)
	if err != nil {
		return nil, nil, err
	}
	if en.delta {
		return nil, nil, fmt.Errorf("broker: assign carries a delta entry; the master composes it with the base first")
	}
	id := moe.ExpertID{Layer: int(m.Layer), Expert: int(m.Expert)}
	ex := moe.NewExpert(id, nil, en.spec.D, en.spec.Hidden, true)
	if en.spec.LoRARank > 0 {
		ex.AttachLoRA(nil, en.spec.LoRARank, en.spec.LoRAAlpha)
	}
	for i, p := range ex.Params() {
		copy(p.Value.Data, en.params[i].Data)
	}
	return ex, en, nil
}

// frozenOf views e's frozen parameters, in Params() order: its base.
func frozenOf(e *moe.Expert) []wire.Matrix {
	var base []wire.Matrix
	for _, p := range e.Params() {
		if !p.Trainable {
			base = append(base, matrixOf(p.Value))
		}
	}
	return base
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// baseSum is the digest a delta entry names its base by: CRC32C over the
// little-endian bits of every value, tensor after tensor.
func baseSum(base []wire.Matrix) uint32 {
	var sum uint32
	buf := make([]byte, 0, 8<<10)
	for _, t := range base {
		for vals := t.Data; len(vals) > 0; {
			n := min(len(vals), cap(buf)/8)
			buf = wire.AppendFloat64s(buf[:0], vals[:n])
			sum = crc32.Update(sum, castagnoli, buf)
			vals = vals[n:]
		}
	}
	return sum
}

// matrixOf views a tensor as a wire matrix (2-D as-is, otherwise as a
// single row).
func matrixOf(t *tensor.Tensor) wire.Matrix {
	if t.Dims() == 2 {
		return wire.Matrix{Rows: t.Dim(0), Cols: t.Dim(1), Data: t.Data}
	}
	return wire.Matrix{Rows: 1, Cols: t.Len(), Data: t.Data}
}

// tensorOf converts a wire matrix into a tensor.
func tensorOf(m wire.Matrix) *tensor.Tensor {
	return tensor.New(m.Data, m.Rows, m.Cols)
}
