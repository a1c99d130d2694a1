package bench

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// values: the smallest sample with at least a share p of the samples at
// or below it. With n=100 and p=0.9 that is the 90th smallest sample,
// which leaves exactly ten samples beyond it — the choosing-metrics
// rule for the highest percentile a sample count supports. values need
// not be sorted; an empty slice yields 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median returns the middle sample, or the mean of the two middle
// samples for an even count (Python's statistics.median). An empty
// slice yields 0.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Mean returns the arithmetic mean; an empty slice yields 0.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(values, n=4), the estimator
// the benchmark driver uses for run-to-run spread. Fewer than two
// samples yield the sample itself (or zeros).
func Quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale. Like Python, clamp the
		// index to the data and let the weight extrapolate past it.
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := k*(n+1) - 4*j
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(3)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
