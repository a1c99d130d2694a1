package metrics

import (
	"math"
	"strings"
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

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "step", Values: []float64{1, 2, 3}}
	b := &Series{Name: "mb", Values: []float64{8.5, 9.25}}
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "step,mb\n1,8.5\n2,9.25\n3,\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
	var empty strings.Builder
	if err := WriteCSV(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "" {
		t.Fatal("no series must write nothing")
	}
}
