package placement

import (
	"fmt"
	"sort"

	"repro/internal/lp"
)

// LocalityLP is VELA's locality-aware placement: the LP relaxation of the
// min-max communication-time problem (§IV-B "LP transformation") followed
// by the paper's three-step rounding procedure.
type LocalityLP struct{}

var _ Strategy = LocalityLP{}

// Name implements Strategy.
func (LocalityLP) Name() string { return "vela-lp" }

// buildLP constructs the relaxed problem. Variable layout:
// x[n][l][e] at index (n·L + l)·E + e, followed by λ_l at N·L·E + l.
//
// The per-variable upper bound x ≤ 1 of the paper's relaxation is implied
// by Σ_n x = 1 together with x ≥ 0, so no explicit rows are needed.
func (LocalityLP) buildLP(p *Problem) *lp.Problem {
	nx := p.Workers * p.Layers * p.Experts
	xIdx := func(n, l, e int) int { return (n*p.Layers+l)*p.Experts + e }
	lIdx := func(l int) int { return nx + l }

	prob := &lp.Problem{NumVars: nx + p.Layers, Objective: make([]float64, nx+p.Layers)}
	// minimize Σ_l λ_l
	for l := 0; l < p.Layers; l++ {
		prob.Objective[lIdx(l)] = 1
	}
	// Σ_n x[n][l][e] = 1
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			vars := make([]int, p.Workers)
			coeffs := make([]float64, p.Workers)
			for n := 0; n < p.Workers; n++ {
				vars[n] = xIdx(n, l, e)
				coeffs[n] = 1
			}
			prob.AddConstraint(vars, coeffs, lp.EQ, 1)
		}
	}
	// Σ_{l,e} x[n][l][e] ≤ C_n
	for n := 0; n < p.Workers; n++ {
		vars := make([]int, 0, p.Layers*p.Experts)
		coeffs := make([]float64, 0, p.Layers*p.Experts)
		for l := 0; l < p.Layers; l++ {
			for e := 0; e < p.Experts; e++ {
				vars = append(vars, xIdx(n, l, e))
				coeffs = append(coeffs, 1)
			}
		}
		prob.AddConstraint(vars, coeffs, lp.LE, float64(p.Capacity[n]))
	}
	// (bytes/B_n)·K·Σ_e x·P ≤ λ_l  for every (l, n).
	for l := 0; l < p.Layers; l++ {
		for n := 0; n < p.Workers; n++ {
			vars := make([]int, 0, p.Experts+1)
			coeffs := make([]float64, 0, p.Experts+1)
			for e := 0; e < p.Experts; e++ {
				vars = append(vars, xIdx(n, l, e))
				coeffs = append(coeffs, p.expertSec(n, l, e))
			}
			vars = append(vars, lIdx(l))
			coeffs = append(coeffs, -1)
			prob.AddConstraint(vars, coeffs, lp.LE, 0)
		}
	}
	return prob
}

// Place implements Strategy: solve the relaxation, then round.
func (s LocalityLP) Place(p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sol, err := lp.Solve(s.buildLP(p))
	if err != nil {
		return nil, fmt.Errorf("placement: LP solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("placement: LP ended %v", sol.Status)
	}
	xIdx := func(n, l, e int) int { return (n*p.Layers+l)*p.Experts + e }
	relaxed := func(n, l, e int) float64 { return sol.X[xIdx(n, l, e)] }
	return Round(p, relaxed)
}

// Round converts a relaxed solution (values in [0,1] per (worker, layer,
// expert)) into a feasible binary assignment with the paper's three-step
// procedure:
//
//  1. Threshold at 0.5: any value above 0.5 becomes an assignment.
//  2. For overloaded workers, drop the assignments with the lowest relaxed
//     values until within capacity.
//  3. Assign every still-unassigned expert to the worker with remaining
//     capacity showing the strongest affinity (highest relaxed value).
func Round(p *Problem, relaxed func(n, l, e int) float64) (*Assignment, error) {
	type slot struct {
		l, e int
		val  float64 // relaxed value on the currently assigned worker
	}
	a := NewAssignment(p.Layers, p.Experts)
	assignedTo := make([][]int, p.Layers) // -1 = unassigned
	for l := range assignedTo {
		assignedTo[l] = make([]int, p.Experts)
		for e := range assignedTo[l] {
			assignedTo[l][e] = -1
		}
	}

	// Step 1: thresholding. Σ_n x = 1 guarantees at most one worker can
	// exceed 0.5 per expert.
	perWorker := make([][]slot, p.Workers)
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			for n := 0; n < p.Workers; n++ {
				if relaxed(n, l, e) > 0.5 {
					assignedTo[l][e] = n
					perWorker[n] = append(perWorker[n], slot{l, e, relaxed(n, l, e)})
					break
				}
			}
		}
	}

	// Step 2: capacity repair — evict lowest-affinity slots from
	// overloaded workers.
	load := make([]int, p.Workers)
	for n := range perWorker {
		load[n] = len(perWorker[n])
	}
	for n := 0; n < p.Workers; n++ {
		if load[n] <= p.Capacity[n] {
			continue
		}
		sort.SliceStable(perWorker[n], func(i, j int) bool {
			return perWorker[n][i].val < perWorker[n][j].val
		})
		excess := load[n] - p.Capacity[n]
		for i := 0; i < excess; i++ {
			s := perWorker[n][i]
			assignedTo[s.l][s.e] = -1
		}
		load[n] = p.Capacity[n]
	}

	// Step 3: affinity reassignment for unassigned experts, most
	// confident first so contested capacity goes to the strongest
	// affinities.
	type pending struct {
		l, e int
		best float64
	}
	var todo []pending
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			if assignedTo[l][e] == -1 {
				b := 0.0
				for n := 0; n < p.Workers; n++ {
					if v := relaxed(n, l, e); v > b {
						b = v
					}
				}
				todo = append(todo, pending{l, e, b})
			}
		}
	}
	sort.SliceStable(todo, func(i, j int) bool { return todo[i].best > todo[j].best })
	for _, t := range todo {
		best, bestVal := -1, -1.0
		for n := 0; n < p.Workers; n++ {
			if load[n] >= p.Capacity[n] {
				continue
			}
			if v := relaxed(n, t.l, t.e); v > bestVal {
				best, bestVal = n, v
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("placement: rounding ran out of capacity for L%d/E%d", t.l, t.e)
		}
		assignedTo[t.l][t.e] = best
		load[best]++
	}

	for l := range assignedTo {
		copy(a.Worker[l], assignedTo[l])
	}
	if err := a.Validate(p); err != nil {
		return nil, fmt.Errorf("placement: rounding produced invalid assignment: %w", err)
	}
	return a, nil
}
