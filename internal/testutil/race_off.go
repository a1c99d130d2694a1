//go:build !race

package testutil

// RaceEnabled is documented in race_on.go.
const RaceEnabled = false
