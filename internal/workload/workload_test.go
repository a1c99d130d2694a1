package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

func TestMatrixRowsSumToOne(t *testing.T) {
	for _, p := range PaperProfiles() {
		P := p.Matrix()
		if len(P) != p.Layers {
			t.Fatalf("%s: %d rows, want %d", p.Name, len(P), p.Layers)
		}
		for l, row := range P {
			if len(row) != p.Experts {
				t.Fatalf("%s row %d: %d entries", p.Name, l, len(row))
			}
			var sum float64
			for _, v := range row {
				if v <= 0 {
					t.Fatalf("%s: non-positive probability", p.Name)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s row %d sums to %v", p.Name, l, sum)
			}
		}
	}
}

func TestMatrixDeterministic(t *testing.T) {
	a := MixtralWikiText.Matrix()
	b := MixtralWikiText.Matrix()
	for l := range a {
		for e := range a[l] {
			if !testutil.BitEqual(a[l][e], b[l][e]) {
				t.Fatal("Matrix must be deterministic")
			}
		}
	}
}

// TestWikiTextMoreConcentratedThanAlpaca checks the calibration property
// the whole evaluation rests on: WikiText-like profiles concentrate more
// routing mass than Alpaca-like ones (Fig. 7).
func TestWikiTextMoreConcentratedThanAlpaca(t *testing.T) {
	pairs := [][2]Profile{
		{MixtralWikiText, MixtralAlpaca},
		{GritLMWikiText, GritLMAlpaca},
	}
	for _, pair := range pairs {
		wiki := mean(TopMass(pair[0].Matrix(), 2))
		alpaca := mean(TopMass(pair[1].Matrix(), 2))
		if wiki <= alpaca {
			t.Fatalf("%s top-2 mass %.3f must exceed %s %.3f", pair[0].Name, wiki, pair[1].Name, alpaca)
		}
		hw := mean(Entropy(pair[0].Matrix()))
		ha := mean(Entropy(pair[1].Matrix()))
		if hw >= ha {
			t.Fatalf("%s entropy %.3f must be below %s %.3f", pair[0].Name, hw, pair[1].Name, ha)
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestDriftSharpens(t *testing.T) {
	base := MixtralWikiText.Matrix()
	drifted := DriftedMatrix(base, MixtralWikiText.Drift, 500)
	// The top expert of each row must not lose share under drift.
	for l, row := range base {
		top, topV := 0, 0.0
		for e, v := range row {
			if v > topV {
				top, topV = e, v
			}
		}
		if drifted[l][top] < topV-1e-12 {
			t.Fatalf("row %d: drift reduced top expert share %.4f -> %.4f", l, topV, drifted[l][top])
		}
	}
	// Rows remain normalized.
	for l, row := range drifted {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("drifted row %d sums to %v", l, sum)
		}
	}
	// Zero drift or step 0 returns the base matrix unchanged.
	if got := DriftedMatrix(base, 0, 100); &got[0][0] != &base[0][0] {
		t.Fatal("zero drift must return base")
	}
}

func TestGeneratorCountsConserved(t *testing.T) {
	g := NewGenerator(MixtralAlpaca, 1000)
	counts := g.Step()
	if len(counts) != 32 {
		t.Fatalf("%d layers", len(counts))
	}
	for l, row := range counts {
		var sum int64
		for _, c := range row {
			if c < 0 {
				t.Fatalf("negative count layer %d", l)
			}
			sum += c
		}
		if sum != 1000 {
			t.Fatalf("layer %d: %d routings, want 1000", l, sum)
		}
	}
	if g.step != 1 {
		t.Fatal("step index not advanced")
	}
}

func TestGeneratorDeterministicAndReset(t *testing.T) {
	g1 := NewGenerator(GritLMWikiText, 500)
	g2 := NewGenerator(GritLMWikiText, 500)
	a := g1.Step()
	b := g2.Step()
	for l := range a {
		for e := range a[l] {
			if a[l][e] != b[l][e] {
				t.Fatal("generators with the same profile must agree")
			}
		}
	}
	g1.Step()
	c := NewGenerator(GritLMWikiText, 500).Step()
	for l := range a {
		for e := range a[l] {
			if a[l][e] != c[l][e] {
				t.Fatal("a fresh generator must replay the stream")
			}
		}
	}
}

func TestGeneratorMatchesMatrixInExpectation(t *testing.T) {
	p := Profile{Name: "t", Layers: 1, Experts: 4, SigmaBase: 1.0, SigmaHot: 1, HotFrac: 0, Seed: 5}
	p.Drift = 0
	g := NewGenerator(p, 20000)
	counts := g.Step()
	P := g.base
	for e := 0; e < 4; e++ {
		got := float64(counts[0][e]) / 20000
		if math.Abs(got-P[0][e]) > 0.02 {
			t.Fatalf("expert %d: sampled %.3f vs P %.3f", e, got, P[0][e])
		}
	}
}

func TestGeneratorPanicsOnBadVolume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(MixtralWikiText, 0)
}

func TestAliasTableUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := []float64{0.5, 0.25, 0.125, 0.125}
	tbl := newAlias(p)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[tbl.draw(rng)]++
	}
	for e, want := range p {
		got := float64(counts[e]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("alias biased: expert %d %.3f vs %.3f", e, got, want)
		}
	}
}

func TestTopMassAndEntropy(t *testing.T) {
	P := [][]float64{{0.7, 0.2, 0.1}}
	if got := TopMass(P, 2)[0]; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("TopMass = %v", got)
	}
	uniform := [][]float64{{0.25, 0.25, 0.25, 0.25}}
	if got := Entropy(uniform)[0]; math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("Entropy = %v, want ln4", got)
	}
}
