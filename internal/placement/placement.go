// Package placement implements the paper's primary contribution: the
// locality-aware expert placement mechanism of §IV-B, together with the
// baseline strategies it is evaluated against (sequential, random, and a
// greedy LPT ablation).
//
// The optimization problem: given N workers with bandwidths B_n and
// capacities C_n, L MoE blocks of E experts, and the access-probability
// matrix P[l][e], choose a binary assignment X[n][l][e] minimizing
//
//	Σ_l max_n  (bH/4B_n) · K · Σ_e X[n][l][e]·P[l][e]
//
// subject to each expert living on exactly one worker and per-worker
// capacity. The LP strategy relaxes X to [0,1], solves the resulting
// linear program with internal/lp, and rounds the solution back to a
// feasible binary assignment with the paper's three-step procedure.
//
// The objective is written once, in cost.go; Evaluate, the LP, Greedy,
// Repair and the simulator all price a placement through it.
package placement

import (
	"fmt"
	"math/rand"
	"sort"
)

// Problem is one placement instance.
type Problem struct {
	Workers int
	Layers  int
	Experts int
	// P[l][e] is the probability that a routing in block l selects
	// expert e (rows sum to 1); the matrix the paper measures with a
	// profiling pass before fine-tuning.
	P [][]float64
	// Bandwidth holds B_n, the master↔worker-n bandwidth in bytes/s.
	Bandwidth []float64
	// Capacity[n] is C_n, the number of experts worker n can host.
	Capacity []int
	// RoutingsPerStep is the expected number of (token, expert) routings
	// entering each MoE block per fine-tuning step
	// (batch · seqLen · topK).
	RoutingsPerStep float64
	// BytesPerToken is the payload of one routed token copy in one
	// direction: b·H/8 with b the bit depth and H the feature size.
	BytesPerToken float64
	// WorkerNode[n] and MasterNode classify traffic as intra- or
	// cross-node for the external-traffic metrics (Fig. 5).
	WorkerNode []int
	MasterNode int
}

// Validate checks structural consistency, including that total capacity
// can host every expert.
func (p *Problem) Validate() error {
	switch {
	case p.Workers <= 0 || p.Layers <= 0 || p.Experts <= 0:
		return fmt.Errorf("placement: non-positive geometry %d/%d/%d", p.Workers, p.Layers, p.Experts)
	case len(p.P) != p.Layers:
		return fmt.Errorf("placement: P has %d rows, want %d", len(p.P), p.Layers)
	case len(p.Bandwidth) != p.Workers:
		return fmt.Errorf("placement: %d bandwidths, want %d", len(p.Bandwidth), p.Workers)
	case len(p.Capacity) != p.Workers:
		return fmt.Errorf("placement: %d capacities, want %d", len(p.Capacity), p.Workers)
	case len(p.WorkerNode) != p.Workers:
		return fmt.Errorf("placement: %d worker nodes, want %d", len(p.WorkerNode), p.Workers)
	case p.RoutingsPerStep <= 0 || p.BytesPerToken <= 0:
		return fmt.Errorf("placement: traffic parameters must be positive")
	}
	for l, row := range p.P {
		if len(row) != p.Experts {
			return fmt.Errorf("placement: P row %d has %d entries, want %d", l, len(row), p.Experts)
		}
	}
	total := 0
	for n, c := range p.Capacity {
		if c < 0 {
			return fmt.Errorf("placement: negative capacity on worker %d", n)
		}
		total += c
	}
	if need := p.Layers * p.Experts; total < need {
		return fmt.Errorf("placement: total capacity %d cannot host %d experts", total, need)
	}
	for n, b := range p.Bandwidth {
		if b <= 0 {
			return fmt.Errorf("placement: non-positive bandwidth on worker %d", n)
		}
	}
	return nil
}

// Assignment maps every expert to a worker: Worker[l][e] ∈ [0, N).
type Assignment struct {
	Worker [][]int
}

// NewAssignment allocates an all-zero assignment for the given geometry.
func NewAssignment(layers, experts int) *Assignment {
	a := &Assignment{Worker: make([][]int, layers)}
	for l := range a.Worker {
		a.Worker[l] = make([]int, experts)
	}
	return a
}

// Validate checks that the assignment is complete and within capacity.
func (a *Assignment) Validate(p *Problem) error {
	if len(a.Worker) != p.Layers {
		return fmt.Errorf("placement: assignment has %d layers, want %d", len(a.Worker), p.Layers)
	}
	load := make([]int, p.Workers)
	for l, row := range a.Worker {
		if len(row) != p.Experts {
			return fmt.Errorf("placement: layer %d has %d experts, want %d", l, len(row), p.Experts)
		}
		for e, n := range row {
			if n < 0 || n >= p.Workers {
				return fmt.Errorf("placement: expert L%d/E%d assigned to invalid worker %d", l, e, n)
			}
			load[n]++
		}
	}
	for n, ld := range load {
		if ld > p.Capacity[n] {
			return fmt.Errorf("placement: worker %d hosts %d experts, capacity %d", n, ld, p.Capacity[n])
		}
	}
	return nil
}

// Loads returns the number of experts hosted per worker.
func (a *Assignment) Loads(workers int) []int {
	load := make([]int, workers)
	for _, row := range a.Worker {
		for _, n := range row {
			load[n]++
		}
	}
	return load
}

// Strategy produces an assignment for a problem.
type Strategy interface {
	Name() string
	Place(p *Problem) (*Assignment, error)
}

// Sequential deals experts to workers in global round-robin order
// (expert (l,e) → worker (l·E+e) mod N), the paper's "sequentially
// assigns experts to devices" baseline run inside VELA's framework. The
// global ordering keeps per-worker loads even when E is not a multiple of
// N, which is also what makes the layout capacity-feasible on the paper's
// testbed (256 experts over 6 workers).
type Sequential struct{}

var _ Strategy = Sequential{}

// Name implements Strategy.
func (Sequential) Name() string { return "sequential" }

// Place implements Strategy.
func (Sequential) Place(p *Problem) (*Assignment, error) {
	return dealRoundRobin(p, "sequential", func([]int) {})
}

// dealRoundRobin is the deal under Sequential and Random: block by block,
// the experts — in index order, as permuted by shuffle — go to workers in
// one continuing round-robin that skips workers already at capacity.
func dealRoundRobin(p *Problem, name string, shuffle func(perm []int)) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := NewAssignment(p.Layers, p.Experts)
	remaining := append([]int(nil), p.Capacity...)
	perm := make([]int, p.Experts)
	n := 0
	for l := 0; l < p.Layers; l++ {
		for e := range perm {
			perm[e] = e
		}
		shuffle(perm)
		for _, e := range perm {
			tries := 0
			for remaining[(n+tries)%p.Workers] == 0 {
				if tries++; tries == p.Workers {
					return nil, fmt.Errorf("placement: %s ran out of capacity", name)
				}
			}
			cand := (n + tries) % p.Workers
			a.Worker[l][e] = cand
			remaining[cand]--
			n = cand + 1
		}
	}
	return a, nil
}

// EPLayout returns conventional expert parallelism's per-block layout
// (expert e of every block on worker e mod N, §V-A). It is not a Strategy
// because EP is a different framework, not a placement choice inside
// VELA; the EP simulator uses it directly.
func EPLayout(layers, experts, workers int) *Assignment {
	a := NewAssignment(layers, experts)
	for l := 0; l < layers; l++ {
		for e := 0; e < experts; e++ {
			a.Worker[l][e] = e % workers
		}
	}
	return a
}

// Random shuffles the experts of every block and deals them to workers in
// continuing round-robin order (capacity-respecting) — the paper's
// "randomly shuffled and assigned to different worker processes"
// baseline. Shuffling destroys any popularity structure while the cyclic
// deal keeps per-worker and per-block loads as even as sequential
// placement, which is why the paper finds its traffic and speed close to
// the sequential baseline.
type Random struct {
	Seed int64
}

var _ Strategy = Random{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Place implements Strategy.
func (r Random) Place(p *Problem) (*Assignment, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	return dealRoundRobin(p, "random", func(perm []int) {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	})
}

// Greedy is an LPT-style ablation: within each block, experts are placed
// in decreasing popularity onto the worker that minimizes the block's
// resulting bottleneck time, subject to capacity. It is not in the paper;
// DESIGN.md lists it as an ablation of the LP machinery.
type Greedy struct{}

var _ Strategy = Greedy{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// Place implements Strategy.
func (g Greedy) Place(p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fill := newLPTFill(p, append([]int(nil), p.Capacity...))

	// Process blocks in order of decreasing concentration so the most
	// skewed blocks get first pick of fast-worker capacity.
	order := make([]int, p.Layers)
	for i := range order {
		order[i] = i
	}
	maxP := func(l int) float64 {
		m := 0.0
		for _, v := range p.P[l] {
			if v > m {
				m = v
			}
		}
		return m
	}
	sort.SliceStable(order, func(i, j int) bool { return maxP(order[i]) > maxP(order[j]) })

	for _, l := range order {
		exps := make([]int, p.Experts)
		for e := range exps {
			exps[e] = e
		}
		sort.SliceStable(exps, func(i, j int) bool { return p.P[l][exps[i]] > p.P[l][exps[j]] })
		for _, e := range exps {
			if !fill.place(l, e) {
				return nil, fmt.Errorf("placement: greedy ran out of capacity")
			}
		}
	}
	return fill.a, nil
}

// lptFill is the longest-processing-time fill under Greedy and Repair:
// each expert goes to the worker with a free slot that minimizes its
// block's resulting bottleneck transfer time. Callers supply only the
// visiting order.
type lptFill struct {
	p    *Problem
	a    *Assignment
	free []int       // hosting slots left per worker
	time [][]float64 // time[l][n]: block l's expected one-way seconds on worker n so far
}

// newLPTFill starts an empty fill; it owns free.
func newLPTFill(p *Problem, free []int) *lptFill {
	f := &lptFill{p: p, a: NewAssignment(p.Layers, p.Experts), free: free, time: make([][]float64, p.Layers)}
	for l := range f.time {
		f.time[l] = make([]float64, p.Workers)
	}
	return f
}

// keep accounts for an expert that already sits on worker n.
func (f *lptFill) keep(l, e, n int) {
	f.a.Worker[l][e] = n
	f.time[l][n] += f.p.expertSec(n, l, e)
	f.free[n]--
}

// place assigns expert (l, e); false means no worker has a slot left.
func (f *lptFill) place(l, e int) bool {
	best, bestTime := -1, 0.0
	for n := 0; n < f.p.Workers; n++ {
		if f.free[n] <= 0 {
			continue
		}
		if t := f.time[l][n] + f.p.expertSec(n, l, e); best == -1 || t < bestTime {
			best, bestTime = n, t
		}
	}
	if best == -1 {
		return false
	}
	f.keep(l, e, best)
	return true
}
