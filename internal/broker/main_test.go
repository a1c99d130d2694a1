package broker

import (
	"os"
	"testing"

	"repro/internal/testutil"
)

// TestMain gives the package's tests a TMPDIR of their own: every
// executor and worker they build with the default base store shares it
// only with this test binary.
func TestMain(m *testing.M) { os.Exit(testutil.MainInTempDir(m)) }
