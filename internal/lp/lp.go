// Package lp implements a from-scratch two-phase primal simplex solver
// for linear programs in the form
//
//	minimize    c·x
//	subject to  a_i·x {≤,=,≥} b_i   for each constraint i
//	            x ≥ 0
//
// It is the "off-the-shelf LP solver" the paper assumes for the
// locality-aware expert placement problem (§IV-B). The placement LPs have
// a few hundred rows and a couple of thousand columns, which a dense
// tableau handles comfortably.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relation of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a·x ≤ b
	GE                  // a·x ≥ b
	EQ                  // a·x = b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Term is one nonzero coefficient of a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is one sparse row of the LP.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a minimization LP over nonnegative variables.
type Problem struct {
	// NumVars is the number of decision variables (indexed 0..NumVars-1).
	NumVars int
	// Objective holds the cost coefficient of each variable (length
	// NumVars); missing/zero entries are free to omit only by leaving
	// them zero.
	Objective []float64
	// Constraints are the rows.
	Constraints []Constraint
}

// AddConstraint appends a row built from parallel slices of variable
// indices and coefficients.
func (p *Problem) AddConstraint(vars []int, coeffs []float64, sense Sense, rhs float64) {
	if len(vars) != len(coeffs) {
		panic("lp: vars/coeffs length mismatch")
	}
	terms := make([]Term, len(vars))
	for i := range vars {
		terms[i] = Term{Var: vars[i], Coeff: coeffs[i]}
	}
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Sense: sense, RHS: rhs})
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (length NumVars), valid when Optimal
	Objective float64   // c·x at the optimum, valid when Optimal
	Iters     int       // simplex pivots performed across both phases
}

// ErrIterationLimit is returned if the simplex fails to terminate within
// the safety pivot budget; it indicates a bug or a pathological instance,
// not a normal outcome.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const eps = 1e-9

// tableau is a dense simplex tableau with basis bookkeeping.
type tableau struct {
	m, n    int         // rows (constraints), columns (all variables incl. slacks/artificials)
	a       [][]float64 // m rows of n coefficients
	b       []float64   // RHS, kept ≥ 0 by the algorithm
	c       []float64   // current objective row (reduced via basis updates)
	basis   []int       // basis[i] = column basic in row i
	blocked []bool      // columns barred from entering (phase-2 artificials)
	iters   int
}

// pivot performs a standard simplex pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	t.iters++
	p := t.a[row][col]
	inv := 1 / p
	ar := t.a[row]
	for j := 0; j < t.n; j++ {
		ar[j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.n; j++ {
			ai[j] -= f * ar[j]
		}
		t.b[i] -= f * t.b[row]
	}
	f := t.c[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			t.c[j] -= f * ar[j]
		}
	}
	t.basis[row] = col
}

// reducedCosts recomputes nothing: c is maintained incrementally by pivot.
// chooseColumn picks the entering column: Dantzig rule normally, Bland's
// rule (lowest index with negative reduced cost) when degenerate cycling
// is suspected.
func (t *tableau) chooseColumn(bland bool) int {
	if bland {
		for j := 0; j < t.n; j++ {
			if t.blocked != nil && t.blocked[j] {
				continue
			}
			if t.c[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j := 0; j < t.n; j++ {
		if t.blocked != nil && t.blocked[j] {
			continue
		}
		if t.c[j] < bestVal {
			bestVal = t.c[j]
			best = j
		}
	}
	return best
}

// chooseRow performs the minimum ratio test for entering column col,
// breaking ties by smallest basis index (anti-cycling with Bland).
func (t *tableau) chooseRow(col int) int {
	row := -1
	var bestRatio float64
	for i := 0; i < t.m; i++ {
		aij := t.a[i][col]
		if aij <= eps {
			continue
		}
		ratio := t.b[i] / aij
		if row == -1 || ratio < bestRatio-eps ||
			(math.Abs(ratio-bestRatio) <= eps && t.basis[i] < t.basis[row]) {
			row, bestRatio = i, ratio
		}
	}
	return row
}

// run iterates pivots until optimality, unboundedness, or the safety
// limit. Returns Unbounded or Optimal.
func (t *tableau) run(maxIters int) (Status, error) {
	degenerate := 0
	for t.iters < maxIters {
		bland := degenerate > 2*(t.m+t.n)
		col := t.chooseColumn(bland)
		if col < 0 {
			return Optimal, nil
		}
		row := t.chooseRow(col)
		if row < 0 {
			return Unbounded, nil
		}
		if t.b[row] <= eps {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(row, col)
	}
	return 0, ErrIterationLimit
}

// Solve minimizes the problem with the two-phase primal simplex method.
func Solve(p *Problem) (*Solution, error) {
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	m := len(p.Constraints)
	nOrig := p.NumVars

	// Count slack/surplus and artificial columns.
	nSlack, nArt := 0, 0
	for _, con := range p.Constraints {
		sense := con.Sense
		if con.RHS < 0 {
			sense = flip(sense)
		}
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		default:
			return nil, fmt.Errorf("lp: invalid sense %v", con.Sense)
		}
	}
	n := nOrig + nSlack + nArt

	t := &tableau{
		m:     m,
		n:     n,
		a:     make([][]float64, m),
		b:     make([]float64, m),
		c:     make([]float64, n),
		basis: make([]int, m),
	}
	artCols := make([]bool, n)
	slackAt := nOrig
	artAt := nOrig + nSlack
	for i, con := range p.Constraints {
		row := make([]float64, n)
		rhs := con.RHS
		sign := 1.0
		sense := con.Sense
		if rhs < 0 {
			sign, rhs = -1, -rhs
			sense = flip(sense)
		}
		for _, tm := range con.Terms {
			if tm.Var < 0 || tm.Var >= nOrig {
				return nil, fmt.Errorf("lp: constraint %d references variable %d out of range", i, tm.Var)
			}
			row[tm.Var] += sign * tm.Coeff
		}
		switch sense {
		case LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			artCols[artAt] = true
			t.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			artCols[artAt] = true
			t.basis[i] = artAt
			artAt++
		}
		t.a[i] = row
		t.b[i] = rhs
	}

	maxIters := 2000 * (m + n)

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		for j := range t.c {
			t.c[j] = 0
		}
		for j, isArt := range artCols {
			if isArt {
				t.c[j] = 1
			}
		}
		// Price out the basic artificials so reduced costs start
		// consistent with the basis.
		for i, bj := range t.basis {
			if artCols[bj] {
				for j := 0; j < t.n; j++ {
					t.c[j] -= t.a[i][j]
				}
			}
		}
		status, err := t.run(maxIters)
		if err != nil {
			return nil, err
		}
		if status != Optimal {
			return nil, fmt.Errorf("lp: phase 1 ended %v", status)
		}
		var artSum float64
		for i, bj := range t.basis {
			if artCols[bj] {
				artSum += t.b[i]
			}
		}
		if artSum > 1e-6 {
			return &Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		// Pivot any residual zero-level artificials out of the basis.
		for i, bj := range t.basis {
			if !artCols[bj] {
				continue
			}
			pivoted := false
			for j := 0; j < nOrig+nSlack; j++ {
				if math.Abs(t.a[i][j]) > 1e-7 {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all-zero over real variables: redundant
				// constraint; the artificial stays basic at zero, which
				// is harmless as long as it never re-enters (its phase-2
				// cost is zero and its column is excluded below).
				_ = i
			}
		}
	}

	// Phase 2: original objective over real + slack columns; artificial
	// columns are barred from re-entering the basis (a zero-level
	// artificial left basic by a redundant constraint is harmless).
	for j := range t.c {
		t.c[j] = 0
	}
	copy(t.c, p.Objective)
	t.blocked = artCols
	// Price out basic columns.
	for i, bj := range t.basis {
		f := t.c[bj]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.c[j] -= f * t.a[i][j]
		}
	}
	status, err := t.run(maxIters)
	if err != nil {
		return nil, err
	}
	if status != Optimal {
		return &Solution{Status: status, Iters: t.iters}, nil
	}

	x := make([]float64, nOrig)
	var obj float64
	for i, bj := range t.basis {
		if bj < nOrig {
			x[bj] = t.b[i]
		}
	}
	for j, cj := range p.Objective {
		obj += cj * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iters: t.iters}, nil
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return s
	}
}
