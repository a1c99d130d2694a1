package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// BaseStore is a host-local, content-addressed store of frozen expert
// bases: one directory, one file per base, holding the base's canonical
// bytes (every value as little-endian float64, tensor after tensor — the
// bytes a delta entry's CRC32C baseSum is taken over). A file is named by
// the hex SHA-256 of its bytes, so every run on the host can share the
// directory: CRC32C is too short to name content across runs, SHA-256 is
// not.
//
// A file is written once, to a temporary name and then renamed into
// place, and never fsynced: a reader verifies the bytes against their
// name's SHA-256 and the CRC32C its caller expects (Get) and refuses —
// and removes — a file that does not match, so a torn, bit-rotted or
// planted file costs the bytes of one re-ship, never a wrong weight.
// The directory must be private to the user (see private): one that
// another user owns or may enter disables the store. Deleting the
// directory is always safe. A zero Dir disables the store: Put and Get
// fail.
type BaseStore struct {
	Dir string
}

// DefaultBaseDir is the per-user store directory that a master and the
// workers of one host share unless told otherwise.
func DefaultBaseDir() string {
	return filepath.Join(os.TempDir(), "vela-bases-"+strconv.Itoa(os.Getuid()))
}

// baseKey names base bytes: the hex SHA-256 of b.
func baseKey(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// path returns key's file, refusing anything but a 64-digit lowercase hex
// key: a key arrives off the wire and must not name a path of its own.
func (s BaseStore) path(key string) (string, error) {
	if s.Dir == "" {
		return "", fmt.Errorf("checkpoint: base store disabled")
	}
	if len(key) != 2*sha256.Size {
		return "", fmt.Errorf("checkpoint: base key %q is not a SHA-256", key)
	}
	for _, c := range key {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return "", fmt.Errorf("checkpoint: base key %q is not a SHA-256", key)
		}
	}
	return filepath.Join(s.Dir, key+".base"), nil
}

// Put stores b under its key, unless a file of that name is already
// there, and returns the key. Concurrent Puts of one key, from any
// process, each rename a complete file into place.
func (s BaseStore) Put(b []byte) (string, error) {
	key := baseKey(b)
	name, err := s.path(key)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(s.Dir, 0o700); err != nil {
		return "", err
	}
	if err := private(s.Dir); err != nil {
		return "", err
	}
	if _, err := os.Stat(name); err == nil {
		return key, nil
	}
	f, err := os.CreateTemp(s.Dir, key+".tmp-*")
	if err != nil {
		return "", err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), name)
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return "", err
	}
	return key, nil
}

// Get returns key's bytes if the file holds exactly n bytes whose
// SHA-256 is key and whose CRC32C is sum. A file that exists but does not
// match is removed, so the next Put of the base repairs it.
func (s BaseStore) Get(key string, n int, sum uint32) ([]byte, error) {
	name, err := s.path(key)
	if err != nil {
		return nil, err
	}
	if err := private(s.Dir); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(b) != n || crc32.Checksum(b, castagnoli) != sum || baseKey(b) != key {
		_ = os.Remove(name) // a failed removal leaves the next Get to refuse it too
		return nil, fmt.Errorf("checkpoint: %s holds %d bytes that are not the expected %d with CRC32C %08x and this SHA-256", name, len(b), n, sum)
	}
	return b, nil
}

// private refuses a store directory that another local user could have
// planted or could write into: dir must be a directory itself (not a
// symlink), owned by this process's user, with no group or other
// permission bits. A shared default under os.TempDir() is a predictable
// name in a world-writable directory, so it is trusted only when this
// user made it.
func private(dir string) error {
	fi, err := os.Lstat(dir)
	if err != nil {
		return err
	}
	if !fi.IsDir() || fi.Mode().Perm()&0o077 != 0 || !ownedByUser(fi) {
		return fmt.Errorf("checkpoint: base store %s is not a directory private to this user (mode %v)", dir, fi.Mode())
	}
	return nil
}
