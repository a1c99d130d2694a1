package checkpoint

import (
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// encodeExpertSnapshot returns the VELAEXS2 encoding of s: the snapshot
// section a run generation carries, on its own.
func encodeExpertSnapshot(s *ExpertSnapshot) ([]byte, error) {
	return encode(func(e *encoder) { e.snapshot(s) })
}

func sampleSnapshot() *ExpertSnapshot {
	return &ExpertSnapshot{
		Step: 41,
		Entries: []ExpertEntry{
			{Layer: 0, Expert: 2, Tensors: []StateTensor{
				{Rows: 1, Cols: 4, Data: []float64{0, 1.5, -2.25, 3}},
				{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}},
			}},
			{Layer: 1, Expert: 0, Tensors: []StateTensor{
				{Rows: 1, Cols: 1, Data: []float64{-0.125}},
			}},
			// An expert with no tensors must survive the trip too.
			{Layer: 1, Expert: 1},
		},
	}
}

func assertSnapshotEqual(t *testing.T, want, got *ExpertSnapshot) {
	t.Helper()
	if got.Step != want.Step {
		t.Fatalf("step = %d, want %d", got.Step, want.Step)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i, w := range want.Entries {
		g := got.Entries[i]
		if g.Layer != w.Layer || g.Expert != w.Expert || len(g.Tensors) != len(w.Tensors) {
			t.Fatalf("entry %d = L%d/E%d (%d tensors), want L%d/E%d (%d)",
				i, g.Layer, g.Expert, len(g.Tensors), w.Layer, w.Expert, len(w.Tensors))
		}
		for ti, wt := range w.Tensors {
			gt := g.Tensors[ti]
			if gt.Rows != wt.Rows || gt.Cols != wt.Cols {
				t.Fatalf("entry %d tensor %d shape %dx%d, want %dx%d", i, ti, gt.Rows, gt.Cols, wt.Rows, wt.Cols)
			}
			if !testutil.BitEqualSlices(wt.Data, gt.Data) {
				t.Fatalf("entry %d tensor %d payload differs", i, ti)
			}
		}
	}
}

func TestExpertSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	raw, err := encodeExpertSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeExpertSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotEqual(t, want, got)
}

// TestExpertSnapshotFileRoundTrip: a snapshot reaches disk only inside a
// run generation, so the file trip is RunStore.Save then LoadLatest —
// the empty entry included, and no temp file left behind.
func TestExpertSnapshotFileRoundTrip(t *testing.T) {
	s := &RunStore{Dir: t.TempDir()}
	want := sampleSnapshot()
	if _, _, err := s.Save(&RunState{Step: 1, Losses: []float64{4.0}, Experts: want}); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.Dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp file left behind: %v", tmps)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Experts == nil {
		t.Fatal("expert section lost on the file trip")
	}
	assertSnapshotEqual(t, want, got.Experts)
}

func TestExpertSnapshotFind(t *testing.T) {
	s := sampleSnapshot()
	if e := s.Find(1, 0); e == nil || len(e.Tensors) != 1 {
		t.Fatalf("Find(1,0) = %+v", e)
	}
	if e := s.Find(3, 3); e != nil {
		t.Fatalf("Find on absent expert = %+v, want nil", e)
	}
}

// TestExpertSnapshotRejectsBadMagic: a foreign magic and the retired
// pre-moments VELAEXS1 magic (otherwise a well-formed empty snapshot) are
// both refused.
func TestExpertSnapshotRejectsBadMagic(t *testing.T) {
	for _, magic := range []string{"NOTVELA1", "VELAEXS1"} {
		_, err := decodeExpertSnapshot([]byte(magic + "\x00\x00\x00\x00\x00\x00\x00\x00"))
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("magic %q: err = %v, want bad-magic error", magic, err)
		}
	}
}

// snapshotHeader frames int32 fields behind the VELAEXS2 magic — the
// hostile headers the corrupt-count table and the fuzz corpus share.
func snapshotHeader(vs ...int32) []byte {
	raw := []byte(stateMagic)
	for _, v := range vs {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
	}
	return raw
}

// TestExpertSnapshotRejectsCorruptCounts: entry/tensor counts and shapes
// the remaining bytes cannot hold must be rejected up front instead of
// driving a huge allocation the input can never satisfy — and the
// 1<<27-squared shape, whose product overflows int, must be an error
// rather than a makeslice panic.
func TestExpertSnapshotRejectsCorruptCounts(t *testing.T) {
	cases := map[string][]byte{
		"negative entry count": snapshotHeader(1, -1),
		"huge entry count":     snapshotHeader(1, 1<<30),
		"huge tensor count":    snapshotHeader(1, 1, 0, 0, 1<<30),
		"negative shape":       snapshotHeader(1, 1, 0, 0, 1, -4, 4),
		"huge shape":           snapshotHeader(1, 1, 0, 0, 1, 1<<28, 1<<28),
		"overflowing shape":    snapshotHeader(1, 1, 0, 0, 1, 1<<27, 1<<27),
		"trailing bytes":       append(snapshotHeader(1, 0), 0xAB),
	}
	for name, raw := range cases {
		if _, err := decodeExpertSnapshot(raw); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

// TestExpertSnapshotSaveRejectsShapeMismatch: a tensor whose declared
// shape disagrees with its payload length must fail at encode time, not
// produce a torn snapshot.
func TestExpertSnapshotSaveRejectsShapeMismatch(t *testing.T) {
	bad := &ExpertSnapshot{Entries: []ExpertEntry{{
		Tensors: []StateTensor{{Rows: 2, Cols: 2, Data: []float64{1}}},
	}}}
	if _, err := encodeExpertSnapshot(bad); err == nil {
		t.Fatal("shape/payload mismatch must fail")
	}
}
