// Package metrics holds the per-step series behind the figures: a named
// sequence of measurements, its summary statistics, and a CSV writer for
// harness output. Runtime counters live in internal/obs.
package metrics

import (
	"fmt"
	"io"
	"math"
)

// Series is a named sequence of per-step measurements.
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

// WriteCSV emits the series as columns with a header row; series of
// unequal length are padded with empty cells.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	maxLen := 0
	for i, s := range series {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for row := 0; row < maxLen; row++ {
		for i, s := range series {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if row < len(s.Values) {
				if _, err := fmt.Fprintf(w, "%g", s.Values[row]); err != nil {
					return err
				}
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
