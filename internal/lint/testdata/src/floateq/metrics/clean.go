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

// annotatedSentinel demonstrates the escape hatch for a semantically
// exact comparison.
func annotatedSentinel(x float64) bool {
	//lint:ignore floateq sentinel value stored and compared untouched
	return x == -1
}
