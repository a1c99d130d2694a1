package obs

import "math"

// Series is a named sequence of per-step measurements: a loss curve, or
// the traffic and step times behind a figure.
type Series struct {
	Name   string
	Values []float64
}

// Append adds one measurement.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of measurements.
func (s *Series) Len() int { return len(s.Values) }

// Summary holds basic statistics of a series.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes summary statistics; an empty series yields zeros.
func (s *Series) Summarize() Summary {
	n := len(s.Values)
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range s.Values {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range s.Values {
		d := v - mean
		ss += d * d
	}
	return Summary{N: n, Mean: mean, Std: math.Sqrt(ss / float64(n)), Min: mn, Max: mx}
}
