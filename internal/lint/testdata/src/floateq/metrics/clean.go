package metrics

import "math"

// almostEqual is the tolerance-compare shape the analyzer steers
// toward.
func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// isNaN uses the self-comparison idiom, which is exempt.
func isNaN(x float64) bool {
	return x != x
}

// intEqual is integer equality — no finding.
func intEqual(a, b int) bool {
	return a == b
}

// Exact by construction: a constant operand (a sentinel stored and read
// back untouched), IEEE class dispatch, integrality of a decoded count.
func isUnset(x float64) bool    { return x == 0 }
func isSentinel(x float64) bool { return x != -1 }
func isPosInf(x float64) bool   { return x == math.Inf(1) }
func isWhole(x float64) bool    { return x == math.Trunc(x) }

// bitEqual says that bit-exactness is the property: an integer compare.
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
