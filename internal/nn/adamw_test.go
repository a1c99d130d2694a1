package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/tensor"
)

// forEachAdamWBody runs f once with each AdamW body this build and CPU
// can run selected, scalar first, and selects the init-time body again
// afterwards. Under purego and off amd64 there is only the scalar one.
func forEachAdamWBody(f func(body string)) {
	defer func(old bool) { useAdamWAVX512 = old }(useAdamWAVX512)
	useAdamWAVX512 = false
	f("go")
	if cpu.HasAVX512 {
		useAdamWAVX512 = true
		f("avx512")
	}
}

// adamwSpecials are the values the update must carry bit for bit: signed
// zeros, subnormals, and magnitudes whose square overflows or underflows.
var adamwSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072009e-308,
	1e-160, -1e-160, 1e154, -1e154, 1e200, -1e200, math.MaxFloat64, -math.MaxFloat64,
}

// adamwCase returns w, m, v and steps gradients of n elements: normal
// draws over twelve decades, with every adamwSpecials value in w and in
// g, and v = 0, ±0 and subnormal in the moments.
func adamwCase(n, steps int, seed int64) (w, m, v []float64, gs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	draw := func(j int) float64 {
		if j%5 == 3 {
			return adamwSpecials[rng.Intn(len(adamwSpecials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	w, m, v = make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range w {
		w[j], m[j] = draw(j), draw(j+1)
		switch j % 4 {
		case 0: // v = 0, the first step's
		case 1:
			v[j] = 5e-324
		default:
			v[j] = math.Abs(draw(j))
		}
	}
	gs = make([][]float64, steps)
	for s := range gs {
		gs[s] = make([]float64, n)
		for j := range gs[s] {
			gs[s][j] = draw(j + s)
		}
	}
	return w, m, v, gs
}

// TestAdamWBodiesBitIdentical: AdamW.Step leaves w, m and v bit-equal to
// adamwRange, the scalar loop, after every one of four steps, on every
// body, for sizes on both sides of a group of eight and of the parallel
// split (184 320 is one layer's expert adapters at stepbench's compute
// geometry), over signed zeros, subnormals, extreme gradients and v = 0.
func TestAdamWBodiesBitIdentical(t *testing.T) {
	const steps = 4
	cfg := PaperAdamWConfig()
	forEachAdamWBody(func(body string) {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 4099, 184320} {
			w, m, v, gs := adamwCase(n, steps, int64(n))
			p := newParam("w", tensor.New(append([]float64(nil), w...), n), true)
			opt := NewAdamW([]*Param{p}, cfg)
			if !opt.SetMoments(p, m, v) {
				t.Fatal("SetMoments refused the test moments")
			}
			om, ov := opt.Moments(p)
			for s := 1; s <= steps; s++ {
				copy(p.Grad.Data, gs[s-1])
				opt.Step()
				bc1, bc2 := 1-math.Pow(cfg.Beta1, float64(s)), 1-math.Pow(cfg.Beta2, float64(s))
				adamwRange(w, gs[s-1], m, v, cfg, bc1, bc2, 0, n)
				bad, first := 0, -1
				for j := 0; j < n; j++ {
					if math.Float64bits(p.Value.Data[j]) != math.Float64bits(w[j]) ||
						math.Float64bits(om.Data[j]) != math.Float64bits(m[j]) ||
						math.Float64bits(ov.Data[j]) != math.Float64bits(v[j]) {
						if bad++; first < 0 {
							first = j
						}
					}
				}
				if bad > 0 {
					t.Errorf("%s body, n=%d, step %d: %d of %d elements differ from adamwRange; first at %d: w %v m %v v %v, want %v %v %v",
						body, n, s, bad, n, first, p.Value.Data[first], om.Data[first], ov.Data[first], w[first], m[first], v[first])
					break
				}
			}
		}
	})
}

// TestAdamWStepAllocFree: a step over a parameter large enough to split
// across the team allocates nothing, its range job bound with the
// parameter set.
func TestAdamWStepAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need a quiet run")
	}
	rng := rand.New(rand.NewSource(5))
	p := newParam("w", tensor.Randn(rng, 1, 256, 256), true)
	for i := range p.Grad.Data {
		p.Grad.Data[i] = rng.NormFloat64()
	}
	opt := NewAdamW([]*Param{p}, PaperAdamWConfig())
	opt.Step()
	if allocs := testing.AllocsPerRun(20, opt.Step); allocs != 0 {
		t.Errorf("AdamW.Step allocates %.1f times per step, want 0", allocs)
	}
}
