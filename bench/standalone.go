package bench

import (
	"math/rand"
	"time"

	"repro/internal/moe"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// standaloneBudget bounds each standalone measurement's wall time; the
// self-tests shorten it.
var standaloneBudget = 200 * time.Millisecond

// timeOp runs op repeatedly for about standaloneBudget (at least five
// times) and returns the median duration of one call.
func timeOp(op func()) time.Duration {
	op() // warm caches and lazily grown buffers
	var samples []float64
	for start := time.Now(); len(samples) < 5 || time.Since(start) < standaloneBudget; {
		t0 := time.Now()
		op()
		samples = append(samples, float64(time.Since(t0)))
	}
	return time.Duration(Median(samples))
}

// ExpertBench times moe.Expert.Forward+Backward on one mean-sized expert
// batch at the workload's shapes: tokens·topK/experts rows. It returns
// the median milliseconds of a forward/backward pair and the GFLOP/s of
// the pair's six dense base-weight GEMMs (three projections, forward and
// input-gradient; the rank-8 adapters are not counted).
func ExpertBench(w Workload, seed int64) (ms, gflops float64) {
	rng := rand.New(rand.NewSource(seed))
	e := moe.NewExpert(moe.ExpertID{}, rng, w.Cfg.D, w.Cfg.Hidden, true)
	for _, p := range e.Params() {
		p.Trainable = false
	}
	e.AttachLoRA(rng, loraRank, loraAlpha)
	rows := w.Tokens() * w.Cfg.TopK / w.Cfg.Experts
	x := tensor.Randn(rng, 1, rows, w.Cfg.D)
	dy := tensor.Randn(rng, 1, rows, w.Cfg.D)
	d := timeOp(func() {
		e.Forward(x)
		e.Backward(dy)
	})
	flops := 6 * 2 * float64(rows) * float64(w.Cfg.D) * float64(w.Cfg.Hidden)
	return float64(d) / nsPerMs, flops / float64(d) // flop/ns == GFLOP/s
}

// WireBench measures wire.AppendFrame and wire.DecodePooled on the given
// coalesced dispatch frame under each encoding, in MB/s of encoded frame
// bytes (the convention of the repo's wire benchmarks). The frame's
// first tensor is the expert-id row and stays fp64.
func WireBench(frame *wire.Message) (encode, decode map[wire.Encoding]float64) {
	encode = make(map[wire.Encoding]float64)
	decode = make(map[wire.Encoding]float64)
	for _, enc := range []wire.Encoding{wire.EncFP64, wire.EncFP16, wire.EncInt8} {
		m := cloneMessage(frame)
		for i := 1; i < len(m.Tensors); i++ {
			m.Tensors[i].Enc = enc
		}
		size := float64(wire.EncodedSize(m))
		buf := make([]byte, 0, wire.EncodedSize(m))
		var err error
		d := timeOp(func() { buf, err = wire.AppendFrame(buf[:0], m) })
		if err != nil {
			continue
		}
		encode[enc] = size / float64(d) * 1e3 // bytes/ns → MB/s
		body := buf[4:]
		d = timeOp(func() {
			if got, derr := wire.DecodePooled(body); derr == nil {
				wire.Release(got)
			} else {
				err = derr
			}
		})
		if err == nil {
			decode[enc] = size / float64(d) * 1e3
		}
	}
	return encode, decode
}
