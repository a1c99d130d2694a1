//go:build !unix

package checkpoint

import "os"

// ownedByUser cannot read a file's owner here, so no directory is
// trusted and the base store stays disabled.
func ownedByUser(os.FileInfo) bool { return false }
