package testutil

import (
	"fmt"
	"os"
	"testing"
)

// MainInTempDir runs a package's tests with TMPDIR set to a fresh
// directory that is removed when they end, so that whatever the code
// under test writes under os.TempDir() by default — the per-user base
// store of checkpoint.DefaultBaseDir among it — starts empty and is
// shared with no other run on the host. A package's TestMain calls it:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.MainInTempDir(m)) }
func MainInTempDir(m *testing.M) int {
	dir, err := os.MkdirTemp("", "vela-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := os.Setenv("TMPDIR", dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return m.Run()
}
