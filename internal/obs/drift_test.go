package obs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// uniformBaseline is an L×E matrix with every row uniform.
func uniformBaseline(layers, experts int) [][]float64 {
	p := makeMatrix(layers, experts)
	for l := range p {
		for e := range p[l] {
			p[l][e] = 1 / float64(experts)
		}
	}
	return p
}

// feedStep samples `tokens` gate selections per layer from dist and runs
// one full monitor step.
func feedStep(d *DriftMonitor, rng *rand.Rand, layers int, dist []float64, tokens int) {
	for l := 0; l < layers; l++ {
		sel := make([]int, tokens)
		for i := range sel {
			r := rng.Float64()
			cum := 0.0
			for e, p := range dist {
				cum += p
				if r <= cum {
					sel[i] = e
					break
				}
			}
		}
		d.recordRouting(l, [][]int{sel})
	}
	d.EndStep()
}

// TestDriftStaysFlatOnStationaryGate is the negative control of the
// acceptance criterion: routing drawn from the placement-time
// distribution keeps the drift gauge near zero.
func TestDriftStaysFlatOnStationaryGate(t *testing.T) {
	const layers, experts = 4, 6
	rng := rand.New(rand.NewSource(3))
	d := NewDriftMonitor(layers, experts, 0.05)
	d.SetBaseline(uniformBaseline(layers, experts))

	if md := d.MaxDrift(); !testutil.Close(md, 0) {
		t.Fatalf("drift before any step = %v, want 0 (P̂ initialized to baseline)", md)
	}
	uniform := uniformBaseline(1, experts)[0]
	for s := 0; s < 200; s++ {
		feedStep(d, rng, layers, uniform, 2000)
	}
	// With 2000 tokens/step the per-step multinomial noise has L1
	// deviation ~E·sqrt(p(1-p)/n) ≈ 0.1; the EWMA averages it further
	// down. 0.08 is ~3x the observed plateau — flat, in context: the
	// shifting-gate test below lands above 0.9.
	if md := d.MaxDrift(); md > 0.08 {
		t.Fatalf("stationary drift = %v, want < 0.08", md)
	}
}

// TestDriftRisesOnShiftingGate is the positive control: after the gate
// abruptly concentrates on one expert, the drift gauge must climb toward
// the true L1 distance between the distributions.
func TestDriftRisesOnShiftingGate(t *testing.T) {
	const layers, experts = 3, 5
	rng := rand.New(rand.NewSource(17))
	d := NewDriftMonitor(layers, experts, 0.05)
	d.SetBaseline(uniformBaseline(layers, experts))

	// Shifted distribution: 80% of tokens on expert 0, rest spread.
	shifted := make([]float64, experts)
	shifted[0] = 0.8
	for e := 1; e < experts; e++ {
		shifted[e] = 0.2 / float64(experts-1)
	}
	// True L1 distance |shifted - uniform|.
	var trueL1 float64
	for e := range shifted {
		trueL1 += math.Abs(shifted[e] - 1/float64(experts))
	}

	var prev float64
	rises := 0
	for s := 0; s < 120; s++ {
		feedStep(d, rng, layers, shifted, 2000)
		if md := d.MaxDrift(); md > prev {
			rises++
			prev = md
		}
	}
	got := d.MaxDrift()
	// After 120 EWMA folds at α=0.05, P̂ carries (1-0.05)^120 ≈ 0.2% of
	// the baseline: drift must have covered nearly all of the true gap.
	if got < 0.8*trueL1 {
		t.Fatalf("shifted drift = %v, want ≥ %v (80%% of true L1 %v)", got, 0.8*trueL1, trueL1)
	}
	if got > trueL1+0.1 {
		t.Fatalf("shifted drift = %v overshot true L1 %v", got, trueL1)
	}
	// Early convergence is strictly monotone (the EWMA increment dwarfs
	// sampling noise until the gap closes); demand it for at least the
	// first third of the run.
	if rises < 40 {
		t.Fatalf("drift rose on only %d/120 steps — not converging", rises)
	}
	// Per-layer: every layer saw the same shift.
	for l, v := range d.Drift() {
		if v < 0.8*trueL1 {
			t.Fatalf("layer %d drift %v lags; want ≥ %v", l, v, 0.8*trueL1)
		}
	}
}

// TestDriftNilUntilBaseline pins that the gauge is absent (not zero)
// before a placement-time P is installed.
func TestDriftNilUntilBaseline(t *testing.T) {
	d := NewDriftMonitor(2, 3, 0.5)
	d.recordRouting(0, [][]int{{0, 1, 2}})
	d.EndStep()
	if d.Drift() != nil {
		t.Fatal("Drift() non-nil before SetBaseline")
	}
	if !testutil.Close(d.MaxDrift(), 0) {
		t.Fatal("MaxDrift non-zero before SetBaseline")
	}
}

// TestDriftIgnoresOutOfRangeRouting pins the bounds handling on the hot
// recording path: foreign layers and expert indices are dropped, not
// panics or corruption.
func TestDriftIgnoresOutOfRangeRouting(t *testing.T) {
	d := NewDriftMonitor(2, 3, 1)
	d.SetBaseline(uniformBaseline(2, 3))
	d.recordRouting(-1, [][]int{{0}})
	d.recordRouting(5, [][]int{{0}})
	d.recordRouting(0, [][]int{{-2, 7, 1}}) // only expert 1 lands
	d.EndStep()
	phat := d.Phat()
	if !testutil.Close(phat[0][1], 1) {
		t.Fatalf("P̂[0][1] = %v, want 1 (α=1, single in-range selection)", phat[0][1])
	}
	if !testutil.SlicesAlmostEqual(phat[1], []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-12) {
		t.Fatalf("layer with no selections moved: %v", phat[1])
	}
}

// TestCommGauges pins the predicted/measured pairing and the measured
// EWMA's first-sample seeding.
func TestCommGauges(t *testing.T) {
	d := NewDriftMonitor(1, 1, 0.5)
	pred, meas := d.CommGauges()
	if !testutil.Close(pred, 0) || !testutil.Close(meas, 0) {
		t.Fatal("fresh gauges non-zero")
	}
	d.SetPredictedComm(0.25)
	d.addMeasuredComm(0.1) // seeds
	d.addMeasuredComm(0.2) // 0.5*0.1 + 0.5*0.2
	pred, meas = d.CommGauges()
	if !testutil.Close(pred, 0.25) {
		t.Fatalf("predicted = %v, want 0.25", pred)
	}
	if !testutil.AlmostEqual(meas, 0.15, 1e-12) {
		t.Fatalf("measured = %v, want 0.15", meas)
	}
}

// TestDriftNilSafe pins the uninstrumented contract.
func TestDriftNilSafe(t *testing.T) {
	var d *DriftMonitor
	d.SetBaseline(uniformBaseline(1, 2))
	d.recordRouting(0, nil)
	d.EndStep()
	d.SetPredictedComm(1)
	d.addMeasuredComm(1)
	if d.Drift() != nil || !testutil.Close(d.MaxDrift(), 0) || d.Phat() != nil {
		t.Fatal("nil monitor is not inert")
	}
	p, m := d.CommGauges()
	if !testutil.Close(p, 0) || !testutil.Close(m, 0) {
		t.Fatal("nil gauges non-zero")
	}
}
