// Package metrics reproduces the numeric-comparison hazards floateq
// exists to catch: exact equality on values that crossed a lossy wire
// or a reordered reduction.
package metrics

// driftEqual compares two reduction results bit-exactly.
func driftEqual(a, b float64) bool {
	return a == b // want "exact floating-point =="
}

// checkHeadline compares two computed ratios.
func checkHeadline(stepMs, baselineMs float64) bool {
	if baselineMs/stepMs != stepMs/baselineMs { // want "exact floating-point !="
		return false
	}
	return true
}

// mixedWidth compares through a float32 round-trip.
func mixedWidth(x float32, y float64) bool {
	return float64(x) == y // want "exact floating-point =="
}
