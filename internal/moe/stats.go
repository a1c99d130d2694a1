package moe

// AccessStats accumulates per-expert access counts per MoE block. Its
// normalized form is the probability matrix P ∈ R^{L×E} of the paper
// (§IV-B): P[l][e] is the probability that a token routed through block l
// selects expert e. It is produced by a profiling pass before fine-tuning
// and consumed by the locality-aware placement mechanism.
type AccessStats struct {
	Layers  int
	Experts int
	// Counts[l][e] is the number of (token, expert) routings observed.
	Counts [][]int64
	// Tokens[l] is the number of tokens that passed through block l.
	Tokens []int64
}

// NewAccessStats allocates zeroed statistics for an L-block, E-expert
// model.
func NewAccessStats(layers, experts int) *AccessStats {
	s := &AccessStats{
		Layers:  layers,
		Experts: experts,
		Counts:  make([][]int64, layers),
		Tokens:  make([]int64, layers),
	}
	for l := range s.Counts {
		s.Counts[l] = make([]int64, experts)
	}
	return s
}

// record adds the routing decisions of one block forward to the stats.
func (s *AccessStats) record(layer int, r *Routing) {
	for _, sel := range r.Experts {
		for _, e := range sel {
			s.Counts[layer][e]++
		}
	}
	s.Tokens[layer] += int64(len(r.Experts))
}

// RecordCounts adds raw per-expert routing counts (used by the
// trace-driven simulator, where no Routing object exists).
func (s *AccessStats) RecordCounts(layer int, counts []int64, tokens int64) {
	for e, c := range counts {
		s.Counts[layer][e] += c
	}
	s.Tokens[layer] += tokens
}

// Reset zeroes all counters.
func (s *AccessStats) Reset() {
	for l := range s.Counts {
		for e := range s.Counts[l] {
			s.Counts[l][e] = 0
		}
		s.Tokens[l] = 0
	}
}

// Freq returns the access-frequency matrix: Freq[l][e] is the fraction of
// tokens in block l that selected expert e (the y-axis of Fig. 3(a)).
// With top-k routing each row sums to k.
func (s *AccessStats) Freq() [][]float64 {
	f := make([][]float64, s.Layers)
	for l := range f {
		f[l] = make([]float64, s.Experts)
		if s.Tokens[l] == 0 {
			continue
		}
		for e := range f[l] {
			f[l][e] = float64(s.Counts[l][e]) / float64(s.Tokens[l])
		}
	}
	return f
}

// Prob returns the probability matrix P of the paper: Prob[l][e] is the
// fraction of *routings* in block l that went to expert e, so each row
// sums to 1. This is the matrix fed to the placement LP.
func (s *AccessStats) Prob() [][]float64 {
	p := make([][]float64, s.Layers)
	for l := range p {
		p[l] = make([]float64, s.Experts)
		var total int64
		for _, c := range s.Counts[l] {
			total += c
		}
		if total == 0 {
			continue
		}
		for e := range p[l] {
			p[l][e] = float64(s.Counts[l][e]) / float64(total)
		}
	}
	return p
}
