//go:build unix

package checkpoint

import (
	"os"
	"syscall"
)

// ownedByUser reports whether fi's owner is this process's user.
func ownedByUser(fi os.FileInfo) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && int(st.Uid) == os.Getuid()
}
