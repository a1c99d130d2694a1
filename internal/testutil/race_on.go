//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. Tests of
// single-goroutine numeric code that replay a large pinned corpus skip
// under the detector: it finds nothing there and costs 20× the time.
const RaceEnabled = true
