// Package testutil holds the shared numeric comparison helpers the test
// suites use instead of raw float ==/!=. Centralizing the tolerance
// compare keeps velavet's floateq analyzer enforceable in _test.go
// files: a comparison between computed values outside this package goes
// through a helper — AlmostEqual for a tolerance, BitEqual where
// bit-exactness is the property under test.
package testutil

import "math"

// DefaultTol is the absolute tolerance used by Close. It is loose
// enough to absorb reduction reordering and accumulated rounding in the
// small models the tests train, and tight enough to catch any real
// numeric bug.
const DefaultTol = 1e-9

// AlmostEqual reports whether a and b differ by at most tol. NaN never
// compares almost-equal to anything, matching IEEE semantics; two
// infinities of the same sign do.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		// Covers equal infinities, which would otherwise produce a
		// NaN difference below.
		return true
	}
	return math.Abs(a-b) <= tol
}

// Close is AlmostEqual at DefaultTol.
func Close(a, b float64) bool {
	return AlmostEqual(a, b, DefaultTol)
}

// SlicesAlmostEqual reports whether a and b have the same length and
// are element-wise AlmostEqual at tol.
func SlicesAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !AlmostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// BitEqual reports whether a and b are the same float64 bit pattern
// (so NaN == NaN, and -0 != +0). Determinism and codec round-trip
// tests use it when bit-exactness is the property under test; routing
// the comparison through here keeps that intent visible at the call
// site.
func BitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// BitEqualSlices reports whether a and b have the same length and are
// element-wise BitEqual. The parallel tensor engine's determinism tests
// use it: row-ownership partitioning promises results identical to the
// serial kernels bit for bit, not merely within tolerance.
func BitEqualSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !BitEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
