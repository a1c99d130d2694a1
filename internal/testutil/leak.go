package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakGrace is how long VerifyNoLeaks waits for straggler goroutines to
// finish before declaring a leak: shutdown paths legitimately take a few
// scheduler quanta to unwind (a worker's serve goroutine observes the
// closed connection, drains its pool, returns).
const leakGrace = 2 * time.Second

// stacksIn returns the stacks of goroutines currently executing code in
// any of the given packages (matched as substrings of the stack text).
// The calling goroutine is excluded — its stack necessarily contains the
// test function of the package under test — and so is the main goroutine
// that runs the tests, whose stack holds the package's TestMain.
func stacksIn(pkgs []string) []string {
	buf := make([]byte, 1<<22)
	n := runtime.Stack(buf, true)
	var leaked []string
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(stack, "repro/internal/testutil.stacksIn") {
			continue // the caller itself
		}
		if strings.Contains(stack, "testing.(*M).Run(") {
			continue // the test binary's main goroutine, in a package's TestMain
		}
		for _, pkg := range pkgs {
			if strings.Contains(stack, pkg) {
				leaked = append(leaked, stack)
				break
			}
		}
	}
	return leaked
}

// VerifyNoLeaks fails t if, after a grace period, any goroutine is still
// executing code in one of the given packages. Call it at the end of a
// test (or defer it) that starts background goroutines:
//
//	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
//
// Match by the packages the test actually exercises — a persistent
// process-wide pool (e.g. the tensor engine's workers) is then invisible
// to the check, while a worker serve loop or heartbeat goroutine that
// outlives its shutdown is reported with its full stack.
func VerifyNoLeaks(t *testing.T, pkgs ...string) {
	t.Helper()
	deadline := time.Now().Add(leakGrace)
	var leaked []string
	for {
		leaked = stacksIn(pkgs)
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("testutil: %d goroutine(s) leaked in %v:\n%s",
		len(leaked), pkgs, strings.Join(leaked, "\n\n"))
}
