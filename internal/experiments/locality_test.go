package experiments

import (
	"testing"

	"repro/internal/data"
	"repro/internal/trainer"
)

// TestDatasetDependentPreferences validates the observation behind
// Fig. 7's discussion ("different datasets show different preference for
// expert selection"): profiling the same pre-trained checkpoint on two
// corpora must yield visibly different expert preferences.
func TestDatasetDependentPreferences(t *testing.T) {
	m, _, cfg, err := sharedCheckpoint(Quick)
	if err != nil {
		t.Fatal(err)
	}
	statsA, err := trainer.Profile(m, data.WikiText(corpusSize(Quick)), profileBatches(Quick), 2, 32, 61)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := trainer.Profile(m, data.Shakespeare(corpusSize(Quick)), profileBatches(Quick), 2, 32, 61)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := statsA.Prob(), statsB.Prob()
	var l1 float64
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.Experts; e++ {
			d := pa[l][e] - pb[l][e]
			if d < 0 {
				d = -d
			}
			l1 += d
		}
	}
	l1 /= float64(cfg.Layers)
	if l1 < 0.05 {
		t.Fatalf("expert preferences identical across datasets (mean L1 %.4f) — no domain specialization", l1)
	}
}

// TestProfilingIsStable validates the premise of the pre-run measurement
// pass: profiling the same corpus twice (different sampling seeds) gives
// nearly the same probability matrix — P is a property of the
// model+dataset, not the sampling.
func TestProfilingIsStable(t *testing.T) {
	m, _, cfg, err := sharedCheckpoint(Quick)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.Shakespeare(corpusSize(Quick))
	s1, err := trainer.Profile(m, corpus, profileBatches(Quick), 2, 32, 71)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := trainer.Profile(m, corpus, profileBatches(Quick), 2, 32, 72)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := s1.Prob(), s2.Prob()
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.Experts; e++ {
			d := p1[l][e] - p2[l][e]
			if d < 0 {
				d = -d
			}
			if d > 0.12 {
				t.Fatalf("P[%d][%d] unstable across profiling runs: %.3f vs %.3f", l, e, p1[l][e], p2[l][e])
			}
		}
	}
}
