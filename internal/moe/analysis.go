package moe

import (
	"math"

	"repro/internal/tensor"
)

// StabilityBound is the right-hand side of Theorem 1:
//
//	ΔP_t(e) ≤ μ·E·L²·P_{t−1}(x)[e]·(1 − P_{t−1}(x)[e])
//
// where μ is the SGD learning rate, E the number of experts, L the
// Lipschitz/gradient bound of the pre-softmax computation, and p the
// previous softmax score of expert e. The bound vanishes as p→0 or p→1 —
// the "uncertainty term" that makes high-confidence routing stable, and
// with it the expert locality VELA exploits.
func StabilityBound(mu, lipschitz float64, numExperts int, p float64) float64 {
	return mu * float64(numExperts) * lipschitz * lipschitz * p * (1 - p)
}

// softmaxDelta returns per-component |softmax(y1)[e] − softmax(y0)[e]|,
// the ΔP_t(e) of Theorem 1.
func softmaxDelta(y0, y1 []float64) []float64 {
	p0 := make([]float64, len(y0))
	p1 := make([]float64, len(y1))
	tensor.SoftmaxInto(p0, y0)
	tensor.SoftmaxInto(p1, y1)
	d := make([]float64, len(y0))
	for i := range d {
		d[i] = math.Abs(p1[i] - p0[i])
	}
	return d
}

// SelectionOverlap returns the fraction of tokens whose top-k expert *set*
// is identical between two routings of the same token batch. It is the
// operational meaning of "the gating mechanism maintains its selection
// pattern": 1.0 means perfectly stable routing.
func SelectionOverlap(a, b *Routing) float64 {
	if len(a.Experts) == 0 || len(a.Experts) != len(b.Experts) {
		return 0
	}
	same := 0
	for t := range a.Experts {
		if sameSet(a.Experts[t], b.Experts[t]) {
			same++
		}
	}
	return float64(same) / float64(len(a.Experts))
}

func sameSet(x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	for _, v := range x {
		found := false
		for _, w := range y {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CDF returns the empirical cumulative distribution of values at the given
// thresholds: out[i] = fraction of values ≤ thresholds[i]. Used for the
// Fig. 3(b) curve (CDF of the selected experts' softmax mass).
func CDF(values, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(values) == 0 {
		return out
	}
	for i, th := range thresholds {
		cnt := 0
		for _, v := range values {
			if v <= th {
				cnt++
			}
		}
		out[i] = float64(cnt) / float64(len(values))
	}
	return out
}
