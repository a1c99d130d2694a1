package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func baseFixture() []byte {
	b := make([]byte, 8*1000)
	for i := range b {
		b[i] = byte(i*7 + i/13)
	}
	return b
}

// TestBaseStorePutGet: a base is filed under the hex SHA-256 of its
// bytes and read back only when its length and CRC32C are the ones asked
// for; a file that does not match is refused and removed, a key that is
// not a SHA-256 is refused before it names a path, and a zero store
// refuses everything.
func TestBaseStorePutGet(t *testing.T) {
	s := BaseStore{Dir: filepath.Join(t.TempDir(), "bases")}
	b := baseFixture()
	sum := crc32.Checksum(b, castagnoli)
	key, err := s.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := sha256.Sum256(b); key != hex.EncodeToString(want[:]) {
		t.Fatalf("key %s is not the bytes' SHA-256", key)
	}
	if again, err := s.Put(b); err != nil || again != key {
		t.Fatalf("second Put = %q, %v", again, err)
	}
	got, err := s.Get(key, len(b), sum)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	for _, c := range []struct {
		name string
		n    int
		sum  uint32
	}{{"short", len(b) - 8, sum}, {"wrong CRC32C", len(b), sum + 1}} {
		if _, err := s.Get(key, c.n, c.sum); err == nil {
			t.Fatalf("%s: Get = %v, want a refusal", c.name, err)
		}
		if _, err := os.Stat(filepath.Join(s.Dir, key+".base")); !os.IsNotExist(err) {
			t.Fatalf("%s: the refused file is still there (%v)", c.name, err)
		}
		if _, err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", "../" + key[3:], key[:63] + "G", key + "0"} {
		if _, err := s.Get(bad, len(b), sum); err == nil {
			t.Fatalf("Get(%q) = %v, want a refusal", bad, err)
		}
	}
	if _, err := (BaseStore{}).Put(b); err == nil {
		t.Fatal("a zero store accepted a Put")
	}
	if _, err := (BaseStore{}).Get(key, len(b), sum); err == nil {
		t.Fatalf("a zero store's Get = %v", err)
	}
}

// TestBaseStoreConcurrentPut: goroutines putting one base at once each
// get its key, the file holds the base, and no temporary file is left.
// The base is large enough that the writes overlap, and the race is run
// in several fresh stores.
func TestBaseStoreConcurrentPut(t *testing.T) {
	b := bytes.Repeat(baseFixture(), 256) // 2 MB
	sum := crc32.Checksum(b, castagnoli)
	const puts = 4
	for round := 0; round < 4; round++ {
		s := BaseStore{Dir: filepath.Join(t.TempDir(), "bases")}
		keys, errs := make([]string, puts), make([]error, puts)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := 0; i < puts; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start.Wait()
				keys[i], errs[i] = s.Put(b)
			}(i)
		}
		start.Done()
		wg.Wait()
		for i := range keys {
			if errs[i] != nil || keys[i] != keys[0] {
				t.Fatalf("round %d: Put %d = %q, %v; Put 0 = %q", round, i, keys[i], errs[i], keys[0])
			}
		}
		if got, err := s.Get(keys[0], len(b), sum); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("round %d: after concurrent Puts: Get = %v", round, err)
		}
		if left, _ := filepath.Glob(filepath.Join(s.Dir, "*")); len(left) != 1 {
			t.Fatalf("round %d: store holds %v, want the one base file", round, left)
		}
	}
}

// crcTwin returns bytes that differ from b but have its length and
// CRC32C. At a fixed length CRC32C is affine over GF(2), so flipping a
// set of bits whose checksum differences XOR to zero keeps it, and any
// 33 single-bit flips hold such a set: eliminate the flips of b's first
// 64 bits until one reduces to zero.
func crcTwin(b []byte) []byte {
	zero := crc32.Checksum(make([]byte, len(b)), castagnoli)
	var pivot [32]struct {
		diff  uint32
		flips uint64
	}
	for bit := 0; bit < 64; bit++ {
		e := make([]byte, len(b))
		e[bit/8] = 1 << (bit % 8)
		diff, flips := crc32.Checksum(e, castagnoli)^zero, uint64(1)<<bit
		for p := 31; p >= 0 && diff != 0; p-- {
			if diff&(1<<p) == 0 {
				continue
			}
			if pivot[p].flips == 0 {
				pivot[p].diff, pivot[p].flips = diff, flips
				break
			}
			diff, flips = diff^pivot[p].diff, flips^pivot[p].flips
		}
		if diff == 0 {
			twin := append([]byte(nil), b...)
			for i := 0; i < 64; i++ {
				if flips&(1<<i) != 0 {
					twin[i/8] ^= 1 << (i % 8)
				}
			}
			return twin
		}
	}
	panic("unreachable: 64 flips in a 32-dimensional space are dependent")
}

// TestBaseStoreRefusesForgedFile: a file of the right length and CRC32C
// whose bytes are not its name's SHA-256 is refused and removed, and the
// next Put restores the base.
func TestBaseStoreRefusesForgedFile(t *testing.T) {
	s := BaseStore{Dir: filepath.Join(t.TempDir(), "bases")}
	b := baseFixture()
	sum := crc32.Checksum(b, castagnoli)
	key, err := s.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	forged := crcTwin(b)
	if bytes.Equal(forged, b) || len(forged) != len(b) || crc32.Checksum(forged, castagnoli) != sum {
		t.Fatal("crcTwin did not forge a distinct file with the base's length and CRC32C")
	}
	name := filepath.Join(s.Dir, key+".base")
	if err := os.WriteFile(name, forged, 0o600); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key, len(b), sum); err == nil {
		t.Fatalf("Get returned the forged file (%d bytes)", len(got))
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("the forged file is still there (%v)", err)
	}
	if _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key, len(b), sum); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("after the repair: Get = %v", err)
	}
}

// TestBaseStoreRefusesSharedDirectory: a store directory that another
// user could write into or could have planted — group or other
// permission bits, a symlink, another owner — disables the store: Put
// and Get fail, even for a file whose bytes are right, and the store
// works again once the directory is private.
func TestBaseStoreRefusesSharedDirectory(t *testing.T) {
	b := baseFixture()
	sum := crc32.Checksum(b, castagnoli)
	refused := func(name string, s BaseStore, key string) {
		t.Helper()
		if _, err := s.Put(b); err == nil {
			t.Errorf("%s: Put succeeded", name)
		}
		if _, err := s.Get(key, len(b), sum); err == nil {
			t.Errorf("%s: Get succeeded", name)
		}
	}

	s := BaseStore{Dir: filepath.Join(t.TempDir(), "bases")}
	key, err := s.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(s.Dir); err != nil || fi.Mode().Perm() != 0o700 {
		t.Fatalf("Put made the store directory %v, %v; want mode 0700", fi.Mode(), err)
	}
	for _, mode := range []os.FileMode{0o777, 0o755, 0o720} {
		if err := os.Chmod(s.Dir, mode); err != nil {
			t.Fatal(err)
		}
		refused(mode.String(), s, key)
	}
	if err := os.Chmod(s.Dir, 0o700); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key, len(b), sum); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("private again: Get = %v", err)
	}

	link := BaseStore{Dir: filepath.Join(t.TempDir(), "link")}
	if err := os.Symlink(s.Dir, link.Dir); err != nil {
		t.Fatal(err)
	}
	refused("symlink", link, key)

	if os.Getuid() != 0 {
		t.Log("not root: no directory of another owner can be made, that case is skipped")
		return
	}
	if err := os.Chown(s.Dir, 1, -1); err != nil {
		t.Fatal(err)
	}
	refused("owned by uid 1", s, key)
}
