package broker

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/moe"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// FuzzDecodeExpertState: whatever frame reaches a worker as MsgAssign —
// or the master as a snapshot entry to compose — the entry decoder answers
// with an error or a faithful expert, never a panic and never an
// allocation the frame's own length does not justify (an expert costs its
// payload about three times over: values, gradients, scratch). Seeded
// with one full and one delta entry of the same trained expert.
func FuzzDecodeExpertState(f *testing.F) {
	spec := ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	rng := rand.New(rand.NewSource(71))
	ex := moe.NewExpert(moe.ExpertID{}, rng, spec.D, spec.Hidden, true)
	ex.AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
	opt := &expertOptState{Step: 3}
	for _, p := range spec.layout() {
		if !p.frozen {
			m := wire.Matrix{Rows: p.rows, Cols: p.cols, Data: make([]float64, p.rows*p.cols)}
			for i := range m.Data {
				m.Data[i] = rng.Float64()
			}
			opt.M, opt.V = append(opt.M, m), append(opt.V, m)
		}
	}
	for _, m := range []*wire.Message{
		encodeExpertState(ex, spec, opt),
		encodeExpertSnapshot(ex, spec, opt, baseSum(frozenOf(ex))),
		encodeExpert(moe.NewExpert(moe.ExpertID{}, rng, 3, 2, true), ExpertSpec{D: 3, Hidden: 2}),
	} {
		frame, err := wire.AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}

	master := NewExecutor(nil, nil)
	master.SetBase([][]*moe.Expert{{ex}})
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := wire.DecodePooled(body)
		if err != nil {
			return
		}
		m.Type = wire.MsgAssign
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, en, err := decodeExpertState(m)
		full, cerr := master.compose(ex.ID, m.Tensors)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(body)+1<<16); alloc > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d, limit %d", len(body), alloc, limit)
		}
		if cerr == nil {
			// Whatever composes is a full entry the decoder accepts.
			if _, _, err := decodeExpertState(&wire.Message{Type: wire.MsgAssign, Tensors: full}); err != nil {
				t.Fatalf("composed entry does not decode: %v", err)
			}
		}
		if err != nil {
			return
		}
		again := encodeExpertState(got, en.spec, en.opt).Tensors
		if len(again) != len(m.Tensors) {
			t.Fatalf("re-encoded entry has %d tensors, the frame %d", len(again), len(m.Tensors))
		}
		for i := range again {
			if !testutil.BitEqualSlices(again[i].Data, m.Tensors[i].Data) {
				t.Fatalf("tensor %d did not survive decode and re-encode", i)
			}
		}
	})
}
