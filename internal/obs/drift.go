package obs

import (
	"math"
	"sync"
)

// DriftMonitor tracks the placement fidelity signals from the paper's
// objective: an EWMA estimate P̂[l][e] of the gate's access probabilities
// updated once per step, the per-layer L1 drift of P̂ against the
// placement-time P, and a predicted-vs-measured gauge for per-step
// expert-exchange communication time.
//
// Theorem 1 claims P stays stable under fine-tuning; MaxDrift near zero is
// that claim holding empirically, and a rising value is the "placement has
// gone stale, re-run Repair/Migrate" signal.
//
// RecordRouting is called from the gating hot path, so it only folds
// token counts into a preallocated accumulator under a mutex; the O(L·E)
// EWMA fold happens once per step in EndStep. All methods are
// nil-receiver-safe.
type DriftMonitor struct {
	mu       sync.Mutex
	alpha    float64
	baseline [][]float64 // placement-time P[l][e]; nil until SetBaseline
	phat     [][]float64 // EWMA estimate P̂[l][e]
	acc      [][]float64 // per-step selection counts, reset in EndStep

	predictedComm float64 // placement.Evaluate's per-step comm seconds
	measuredComm  float64 // EWMA of measured exchange-span seconds
	measuredN     uint64
}

// NewDriftMonitor builds a monitor for layers×experts gating with EWMA
// coefficient alpha in (0,1]; alpha=1 means "last step only".
func NewDriftMonitor(layers, experts int, alpha float64) *DriftMonitor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.05
	}
	d := &DriftMonitor{alpha: alpha}
	d.phat = makeMatrix(layers, experts)
	d.acc = makeMatrix(layers, experts)
	return d
}

func makeMatrix(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// SetBaseline installs the placement-time P[l][e] (rows normalized to sum
// to 1, as moe.AccessStats.Prob returns). P̂ is initialized to the
// baseline so drift starts at zero and moves only as measured routing
// diverges. The matrix is deep-copied.
func (d *DriftMonitor) SetBaseline(p [][]float64) {
	if d == nil || len(p) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.baseline = makeMatrix(len(p), len(p[0]))
	for l := range p {
		copy(d.baseline[l], p[l])
	}
	if len(d.phat) != len(p) || len(d.phat) > 0 && len(d.phat[0]) != len(p[0]) {
		d.phat = makeMatrix(len(p), len(p[0]))
		d.acc = makeMatrix(len(p), len(p[0]))
	}
	for l := range p {
		copy(d.phat[l], p[l])
	}
}

// recordRouting folds one forward pass's expert selections for a layer
// into the current step's accumulator. selections is Routing.Experts:
// per-token chosen expert indices.
func (d *DriftMonitor) recordRouting(layer int, selections [][]int) {
	if d == nil || layer < 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if layer >= len(d.acc) {
		return
	}
	row := d.acc[layer]
	for _, toks := range selections {
		for _, e := range toks {
			if e >= 0 && e < len(row) {
				row[e]++
			}
		}
	}
}

// EndStep folds the step's accumulated selections into P̂ with the EWMA
// coefficient and resets the accumulator. Layers with no selections this
// step keep their previous estimate.
func (d *DriftMonitor) EndStep() {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for l, row := range d.acc {
		var total float64
		for _, c := range row {
			total += c
		}
		if total == 0 {
			continue
		}
		est := d.phat[l]
		for e, c := range row {
			est[e] = (1-d.alpha)*est[e] + d.alpha*(c/total)
			row[e] = 0
		}
	}
}

// Drift returns the per-layer L1 distance Σ_e |P̂[l][e] − P[l][e]|. The
// value per layer ranges over [0,2]; 0 means the measured routing matches
// the placement-time distribution exactly. Returns nil until a baseline is
// installed.
func (d *DriftMonitor) Drift() []float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.baseline == nil {
		return nil
	}
	out := make([]float64, len(d.baseline))
	for l := range d.baseline {
		var s float64
		for e := range d.baseline[l] {
			s += math.Abs(d.phat[l][e] - d.baseline[l][e])
		}
		out[l] = s
	}
	return out
}

// MaxDrift returns the largest per-layer L1 drift (0 until a baseline is
// installed) — the single "placement staleness" scalar.
func (d *DriftMonitor) MaxDrift() float64 {
	var m float64
	for _, v := range d.Drift() {
		if v > m {
			m = v
		}
	}
	return m
}

// Baseline returns a copy of the placement-time P installed by
// SetBaseline, or nil before one exists. Run-level checkpoints persist
// it so a resumed run's drift signal continues from the same anchor.
func (d *DriftMonitor) Baseline() [][]float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.baseline == nil {
		return nil
	}
	out := makeMatrix(len(d.baseline), cols(d.baseline))
	for l := range d.baseline {
		copy(out[l], d.baseline[l])
	}
	return out
}

// SetEstimate overwrites the EWMA estimate P̂ without touching the
// baseline — the restore inverse of Phat. SetBaseline resets P̂ to the
// baseline, so a run-level resume installs the baseline first and then
// the checkpointed estimate on top. A shape mismatch is ignored.
func (d *DriftMonitor) SetEstimate(p [][]float64) {
	if d == nil || len(p) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(p) != len(d.phat) || cols(p) != cols(d.phat) {
		return
	}
	for l := range p {
		copy(d.phat[l], p[l])
	}
}

// Phat returns a copy of the current EWMA estimate P̂.
func (d *DriftMonitor) Phat() [][]float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := makeMatrix(len(d.phat), cols(d.phat))
	for l := range d.phat {
		copy(out[l], d.phat[l])
	}
	return out
}

func cols(m [][]float64) int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// SetPredictedComm installs the placement objective's predicted per-step
// communication seconds (placement.Metrics.CommTime).
func (d *DriftMonitor) SetPredictedComm(sec float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.predictedComm = sec
	d.mu.Unlock()
}

// addMeasuredComm folds one step's measured expert-exchange seconds into
// the EWMA measured-comm gauge.
func (d *DriftMonitor) addMeasuredComm(sec float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.measuredN == 0 {
		d.measuredComm = sec
	} else {
		d.measuredComm = (1-d.alpha)*d.measuredComm + d.alpha*sec
	}
	d.measuredN++
}

// CommGauges returns the predicted and measured (EWMA) per-step
// communication seconds.
func (d *DriftMonitor) CommGauges() (predicted, measured float64) {
	if d == nil {
		return 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.predictedComm, d.measuredComm
}
