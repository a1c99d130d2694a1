package obs

import (
	"math"
	"testing"

	"repro/internal/testutil"
)

func TestSeriesSummarize(t *testing.T) {
	s := &Series{Name: "x"}
	if sum := s.Summarize(); sum.N != 0 {
		t.Fatal("empty summary must be zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Append(v)
	}
	sum := s.Summarize()
	if sum.N != 8 || !testutil.Close(sum.Mean, 5) || !testutil.Close(sum.Min, 2) || !testutil.Close(sum.Max, 9) {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if math.Abs(sum.Std-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", sum.Std)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}
