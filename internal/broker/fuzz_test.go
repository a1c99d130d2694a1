package broker

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/transport"
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
		got, en, err := decodeExpertState(m, nil)
		full, cerr := master.compose(ex.ID, m.Tensors)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(body)+1<<16); alloc > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d, limit %d", len(body), alloc, limit)
		}
		if cerr == nil {
			// Whatever composes is a full entry the decoder accepts.
			if _, _, err := decodeExpertState(&wire.Message{Type: wire.MsgAssign, Tensors: full}, nil); err != nil {
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

// FuzzTraceFetchResult: whatever frame comes back as a worker's
// MsgTraceFetchResult, FetchWorkerTrace answers with an error or with
// events, never a panic and never an allocation the frame's length does
// not justify (an event row is 80 bytes on the wire and 56 in memory).
// Seeded with the replies of an instrumented and an uninstrumented worker.
func FuzzTraceFetchResult(f *testing.F) {
	traced := obs.NewHandle(obs.Config{Workers: 1})
	for i := 0; i < 3; i++ {
		traced.OnWorkerRecv(0, 1, 2, uint64(i), int64(i), 128)
	}
	fetch := &wire.Message{Type: wire.MsgTraceFetch, Tensors: []wire.Matrix{{Rows: 1, Cols: 1, Data: []float64{0}}}}
	for _, h := range []*obs.Handle{traced, nil} {
		cfg := DefaultWorkerConfig()
		cfg.Obs = h
		reply, _ := NewWorker(0, cfg).handle(fetch)
		frame, err := wire.AppendFrame(nil, reply)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := wire.DecodePooled(body)
		if err != nil {
			return
		}
		m.Type = wire.MsgTraceFetchResult
		master, workerEnd := transport.Pipe()
		defer master.Close()
		go func() {
			if req, err := workerEnd.Recv(); err == nil {
				m.Seq = req.Seq
				_ = workerEnd.Send(m)
			}
		}()
		exec := NewExecutor([]transport.Conn{master}, nil)
		var evs []obs.Event
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		within(t, func() error {
			evs, _, _, err = exec.FetchWorkerTrace(0, 0)
			return nil
		})
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(body)+1<<16); alloc > limit {
			t.Fatalf("fetching a %d-byte reply allocated %d, limit %d", len(body), alloc, limit)
		}
		if err != nil && len(evs) > 0 {
			t.Fatalf("fetch failed (%v) but returned %d events", err, len(evs))
		}
	})
}
