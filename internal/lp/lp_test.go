package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestSimpleLE(t *testing.T) {
	// min -x0 - 2x1  s.t. x0 + x1 <= 4, x0 <= 2, x1 <= 3  → x=(1,3), obj=-7.
	p := &Problem{NumVars: 2, Objective: []float64{-1, -2}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddConstraint([]int{0}, []float64{1}, LE, 2)
	p.AddConstraint([]int{1}, []float64{1}, LE, 3)
	s := solveOK(t, p)
	if math.Abs(s.Objective-(-7)) > 1e-7 {
		t.Fatalf("objective = %v, want -7", s.Objective)
	}
	if math.Abs(s.X[0]-1) > 1e-7 || math.Abs(s.X[1]-3) > 1e-7 {
		t.Fatalf("x = %v, want (1,3)", s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x0 + x1  s.t. x0 + x1 = 5, x0 >= 2 → obj 5.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2)
	s := solveOK(t, p)
	if math.Abs(s.Objective-5) > 1e-7 {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
	if math.Abs(s.X[0]+s.X[1]-5) > 1e-7 {
		t.Fatalf("equality violated: %v", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]int{0}, []float64{1}, LE, 1)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	p.AddConstraint([]int{0}, []float64{1}, GE, 1)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x0 - x1 >= -3 with negative RHS must be handled (flip to LE).
	// min x0 s.t. x0 - x1 >= -3, x1 <= 2 → x0 = 0 feasible.
	p := &Problem{NumVars: 2, Objective: []float64{1, 0}}
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, GE, -3)
	p.AddConstraint([]int{1}, []float64{1}, LE, 2)
	s := solveOK(t, p)
	if math.Abs(s.Objective) > 1e-7 {
		t.Fatalf("objective = %v, want 0", s.Objective)
	}
}

func TestDegenerateDiet(t *testing.T) {
	// Classic diet-style LP:
	// min 2x0 + 3x1  s.t. x0 + x1 >= 4, 2x0 + x1 >= 5 → x=(4,0)? check:
	// candidates: (1,3): 2+9=11; (4,0): 8; (2.5,0) violates c1. Opt (4,0)=8.
	p := &Problem{NumVars: 2, Objective: []float64{2, 3}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, GE, 4)
	p.AddConstraint([]int{0, 1}, []float64{2, 1}, GE, 5)
	s := solveOK(t, p)
	if math.Abs(s.Objective-8) > 1e-7 {
		t.Fatalf("objective = %v, want 8", s.Objective)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicated equality rows exercise the residual-artificial path.
	p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 3)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 3)
	s := solveOK(t, p)
	if math.Abs(s.Objective-3) > 1e-7 { // put everything on x0
		t.Fatalf("objective = %v, want 3", s.Objective)
	}
}

func TestObjectiveLengthValidation(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1}}
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for wrong objective length")
	}
}

func TestVariableIndexValidation(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]int{3}, []float64{1}, LE, 1)
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for out-of-range variable")
	}
}

func TestMinMaxLinearization(t *testing.T) {
	// The structure used by the placement LP: minimize λ with
	// a_i·x ≤ λ and Σx groups fixed. Three items of work {3, 1, 2} split
	// between two machines, each x fractional in [0,1] via Σ_m x = 1:
	// optimal makespan = 3 (total 6 over 2 machines).
	// Vars: x[m][i] = m*3+i (6 vars), λ = 6.
	p := &Problem{NumVars: 7, Objective: []float64{0, 0, 0, 0, 0, 0, 1}}
	w := []float64{3, 1, 2}
	for i := 0; i < 3; i++ {
		p.AddConstraint([]int{i, 3 + i}, []float64{1, 1}, EQ, 1)
	}
	for m := 0; m < 2; m++ {
		vars := []int{m*3 + 0, m*3 + 1, m*3 + 2, 6}
		coeffs := []float64{w[0], w[1], w[2], -1}
		p.AddConstraint(vars, coeffs, LE, 0)
	}
	s := solveOK(t, p)
	if math.Abs(s.Objective-3) > 1e-6 {
		t.Fatalf("makespan = %v, want 3", s.Objective)
	}
}

// TestRandomFeasibilityProperty: for random LPs with a known feasible
// point, the solver must return a solution at least as good as that point
// and satisfying all constraints.
func TestRandomFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nv := 3 + rng.Intn(5)
		feas := make([]float64, nv)
		for i := range feas {
			feas[i] = rng.Float64() * 5
		}
		p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
		for i := range p.Objective {
			p.Objective[i] = rng.Float64()*4 - 1
		}
		nc := 2 + rng.Intn(4)
		for c := 0; c < nc; c++ {
			vars := make([]int, 0, nv)
			coeffs := make([]float64, 0, nv)
			var lhs float64
			for i := 0; i < nv; i++ {
				co := rng.Float64()*2 - 0.5
				vars = append(vars, i)
				coeffs = append(coeffs, co)
				lhs += co * feas[i]
			}
			// Make the feasible point satisfy the row with slack.
			p.AddConstraint(vars, coeffs, LE, lhs+rng.Float64())
		}
		// Bound the region so the LP cannot be unbounded.
		for i := 0; i < nv; i++ {
			p.AddConstraint([]int{i}, []float64{1}, LE, 10)
		}
		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		var feasObj float64
		for i := range feas {
			feasObj += p.Objective[i] * feas[i]
		}
		if s.Objective > feasObj+1e-6 {
			t.Fatalf("trial %d: solver obj %v worse than known feasible %v", trial, s.Objective, feasObj)
		}
		// Verify returned point satisfies every constraint.
		for ci, con := range p.Constraints {
			var lhs float64
			for _, tm := range con.Terms {
				lhs += tm.Coeff * s.X[tm.Var]
			}
			if lhs > con.RHS+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, ci, lhs, con.RHS)
			}
		}
		for i, v := range s.X {
			if v < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, i, v)
			}
		}
	}
}

func TestPlacementShapedLP(t *testing.T) {
	// A miniature of the real placement LP: L=2 blocks, E=3 experts,
	// N=2 workers with bandwidths {4, 1} and capacities {4, 2}.
	// P[0] = (0.6, 0.3, 0.1), P[1] = (0.5, 0.4, 0.1). Popular experts
	// should land on the fast worker within capacity.
	const L, E, N = 2, 3, 2
	bw := []float64{4, 1}
	cap := []float64{4, 2}
	P := [][]float64{{0.6, 0.3, 0.1}, {0.5, 0.4, 0.1}}

	xIdx := func(n, l, e int) int { return (n*L+l)*E + e }
	nx := N * L * E
	p := &Problem{NumVars: nx + L, Objective: make([]float64, nx+L)}
	for l := 0; l < L; l++ {
		p.Objective[nx+l] = 1
	}
	for l := 0; l < L; l++ {
		for e := 0; e < E; e++ {
			vars := []int{xIdx(0, l, e), xIdx(1, l, e)}
			p.AddConstraint(vars, []float64{1, 1}, EQ, 1)
		}
	}
	for n := 0; n < N; n++ {
		var vars []int
		var coeffs []float64
		for l := 0; l < L; l++ {
			for e := 0; e < E; e++ {
				vars = append(vars, xIdx(n, l, e))
				coeffs = append(coeffs, 1)
			}
		}
		p.AddConstraint(vars, coeffs, LE, cap[n])
	}
	for l := 0; l < L; l++ {
		for n := 0; n < N; n++ {
			var vars []int
			var coeffs []float64
			for e := 0; e < E; e++ {
				vars = append(vars, xIdx(n, l, e))
				coeffs = append(coeffs, P[l][e]/bw[n])
			}
			vars = append(vars, nx+l)
			coeffs = append(coeffs, -1)
			p.AddConstraint(vars, coeffs, LE, 0)
		}
	}
	s := solveOK(t, p)
	// Sanity: objective strictly better than all-on-slow-worker.
	var worst float64
	for l := 0; l < L; l++ {
		var sum float64
		for e := 0; e < E; e++ {
			sum += P[l][e] / bw[1]
		}
		worst += sum
	}
	if s.Objective >= worst {
		t.Fatalf("LP objective %v not better than trivial %v", s.Objective, worst)
	}
	// Capacity respected.
	var onFast float64
	for l := 0; l < L; l++ {
		for e := 0; e < E; e++ {
			onFast += s.X[xIdx(0, l, e)]
		}
	}
	if onFast > cap[0]+1e-6 {
		t.Fatalf("capacity violated: %v > %v", onFast, cap[0])
	}
}

// BenchmarkSimplexSmall times the solver's fixed overhead on TestSimpleLE's
// two-variable problem.
func BenchmarkSimplexSmall(b *testing.B) {
	p := &Problem{NumVars: 2, Objective: []float64{-1, -2}}
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddConstraint([]int{0}, []float64{1}, LE, 2)
	p.AddConstraint([]int{1}, []float64{1}, LE, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
