package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

func sampleRunState(step int) *RunState {
	return &RunState{
		Step:   step,
		Losses: []float64{3.5, 3.25, 3.0 + float64(step)/16},
		Backbone: []NamedTensor{
			{Name: "blocks.0.attn.lora_a", StateTensor: StateTensor{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}},
			{Name: "blocks.0.attn.lora_b", StateTensor: StateTensor{Rows: 1, Cols: 2, Data: []float64{-0.5, 0.25}}},
		},
		OptStep: step,
		OptM: []StateTensor{
			{Rows: 2, Cols: 3, Data: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}},
			{Rows: 1, Cols: 2, Data: []float64{0.01, 0.02}},
		},
		OptV: []StateTensor{
			{Rows: 2, Cols: 3, Data: []float64{1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4}},
			{Rows: 1, Cols: 2, Data: []float64{1e-5, 2e-5}},
		},
		Experts:         sampleSnapshot(),
		Cursor:          []int64{int64(step * 64), 1},
		Seeds:           []int64{41, 43},
		Assignment:      [][]int{{0, 1, 0}, {1, 0, 1}},
		Baseline:        [][]float64{{0.5, 0.25, 0.25}, {0.4, 0.3, 0.3}},
		Phat:            [][]float64{{0.45, 0.3, 0.25}, {0.35, 0.35, 0.3}},
		PredictedComm:   0.125,
		HasReplace:      true,
		ReplaceOver:     2,
		ReplaceCooldown: 5,
	}
}

func assertRunStateEqual(t *testing.T, want, got *RunState) {
	t.Helper()
	if got.Step != want.Step {
		t.Fatalf("step = %d, want %d", got.Step, want.Step)
	}
	if !testutil.BitEqualSlices(want.Losses, got.Losses) {
		t.Fatalf("losses differ: %v vs %v", got.Losses, want.Losses)
	}
	if len(got.Backbone) != len(want.Backbone) {
		t.Fatalf("%d backbone tensors, want %d", len(got.Backbone), len(want.Backbone))
	}
	for i, w := range want.Backbone {
		g := got.Backbone[i]
		if g.Name != w.Name || g.Rows != w.Rows || g.Cols != w.Cols || !testutil.BitEqualSlices(w.Data, g.Data) {
			t.Fatalf("backbone[%d] differs: %+v vs %+v", i, g, w)
		}
	}
	if got.OptStep != want.OptStep || len(got.OptM) != len(want.OptM) || len(got.OptV) != len(want.OptV) {
		t.Fatalf("opt state shape differs")
	}
	for i := range want.OptM {
		if !testutil.BitEqualSlices(want.OptM[i].Data, got.OptM[i].Data) ||
			!testutil.BitEqualSlices(want.OptV[i].Data, got.OptV[i].Data) {
			t.Fatalf("moments[%d] differ", i)
		}
	}
	if (want.Experts == nil) != (got.Experts == nil) {
		t.Fatalf("experts presence differs")
	}
	if want.Experts != nil {
		assertSnapshotEqual(t, want.Experts, got.Experts)
	}
	for i, v := range want.Cursor {
		if got.Cursor[i] != v {
			t.Fatalf("cursor differs: %v vs %v", got.Cursor, want.Cursor)
		}
	}
	for i, v := range want.Seeds {
		if got.Seeds[i] != v {
			t.Fatalf("seeds differ: %v vs %v", got.Seeds, want.Seeds)
		}
	}
	if len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("assignment layers differ")
	}
	for l := range want.Assignment {
		for e, w := range want.Assignment[l] {
			if got.Assignment[l][e] != w {
				t.Fatalf("assignment differs at L%d/E%d", l, e)
			}
		}
	}
	for l := range want.Baseline {
		if !testutil.BitEqualSlices(want.Baseline[l], got.Baseline[l]) {
			t.Fatalf("baseline row %d differs", l)
		}
	}
	for l := range want.Phat {
		if !testutil.BitEqualSlices(want.Phat[l], got.Phat[l]) {
			t.Fatalf("phat row %d differs", l)
		}
	}
	if !testutil.BitEqual(got.PredictedComm, want.PredictedComm) {
		t.Fatalf("predictedComm = %v, want %v", got.PredictedComm, want.PredictedComm)
	}
	if got.HasReplace != want.HasReplace || got.ReplaceOver != want.ReplaceOver || got.ReplaceCooldown != want.ReplaceCooldown {
		t.Fatalf("replace state = %v/%d/%d, want %v/%d/%d",
			got.HasReplace, got.ReplaceOver, got.ReplaceCooldown,
			want.HasReplace, want.ReplaceOver, want.ReplaceCooldown)
	}
}

func TestRunStoreRoundTrip(t *testing.T) {
	s := &RunStore{Dir: t.TempDir()}
	want := sampleRunState(12)
	gen, size, err := s.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || size <= 0 {
		t.Fatalf("Save = gen %d size %d", gen, size)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("generation = %d, want 1", got.Generation)
	}
	assertRunStateEqual(t, want, got)
	// No tmp files may survive a clean save.
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestRunStoreMinimalState: absent optional sections (no experts, no
// moments, no drift state, no replace controller) round-trip as absent.
func TestRunStoreMinimalState(t *testing.T) {
	s := &RunStore{Dir: t.TempDir()}
	want := &RunState{Step: 1, Losses: []float64{4.0}}
	if _, _, err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Experts != nil || got.Baseline != nil || got.Phat != nil || got.HasReplace ||
		len(got.OptM) != 0 || len(got.Backbone) != 0 {
		t.Fatalf("optional sections materialized from nothing: %+v", got)
	}
	if got.Step != 1 || !testutil.BitEqualSlices(want.Losses, got.Losses) {
		t.Fatalf("minimal state differs: %+v", got)
	}
}

func TestRunStoreGenerationsAndRetention(t *testing.T) {
	s := &RunStore{Dir: t.TempDir(), Keep: 2}
	for step := 1; step <= 5; step++ {
		if _, _, err := s.Save(sampleRunState(step)); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("generations = %v, want [4 5]", gens)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 5 || got.Step != 5 {
		t.Fatalf("latest = gen %d step %d, want 5/5", got.Generation, got.Step)
	}
}

// TestRunStoreResumesGenerationNumbering: a fresh store over an existing
// directory (the resume case) continues the generation sequence instead
// of colliding with it.
func TestRunStoreResumesGenerationNumbering(t *testing.T) {
	dir := t.TempDir()
	s1 := &RunStore{Dir: dir}
	for step := 1; step <= 3; step++ {
		if _, _, err := s1.Save(sampleRunState(step)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := &RunStore{Dir: dir}
	gen, _, err := s2.Save(sampleRunState(4))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 4 {
		t.Fatalf("resumed store wrote generation %d, want 4", gen)
	}
}

// TestRunStoreCorruptionFallback: every way the newest generation can be
// damaged must fall back to the previous valid generation, and damage
// must never be silently accepted.
func TestRunStoreCorruptionFallback(t *testing.T) {
	cases := []struct {
		name string
		// damage receives the store (after two clean saves of steps 1,2)
		// and performs the third, damaged save of step 3 — or damages
		// generation 2's artifacts directly.
		damage  func(t *testing.T, s *RunStore)
		wantGen uint64
	}{
		{
			name: "torn write",
			damage: func(t *testing.T, s *RunStore) {
				s.Faults = &IOFaults{TornWriteGen: 3}
				if _, _, err := s.Save(sampleRunState(3)); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 2,
		},
		{
			name: "bad CRC",
			damage: func(t *testing.T, s *RunStore) {
				if _, _, err := s.Save(sampleRunState(3)); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(s.Dir, runGenName(3))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0xFF
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 2,
		},
		{
			name: "bad magic",
			damage: func(t *testing.T, s *RunStore) {
				if _, _, err := s.Save(sampleRunState(3)); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(s.Dir, runGenName(3))
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				copy(raw, "NOTARUN1")
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 2,
		},
		{
			name: "partial rename",
			damage: func(t *testing.T, s *RunStore) {
				// The bytes for generation 3 only ever exist under the
				// tmp name, although Save reported success.
				s.Faults = &IOFaults{SkipRenameGen: 3}
				if _, _, err := s.Save(sampleRunState(3)); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 2,
		},
		{
			name: "a leftover MANIFEST is ignored",
			damage: func(t *testing.T, s *RunStore) {
				if _, _, err := s.Save(sampleRunState(3)); err != nil {
					t.Fatal(err)
				}
				// Older versions kept an advisory pointer beside the
				// generations; one naming an older valid generation must
				// not shadow the newest.
				manifest := "VELARUN1-MANIFEST\ngeneration 2\nfile " + runGenName(2) + "\n"
				if err := os.WriteFile(filepath.Join(s.Dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantGen: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &RunStore{Dir: t.TempDir()}
			for step := 1; step <= 2; step++ {
				if _, _, err := s.Save(sampleRunState(step)); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(t, s)
			got, err := s.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest after %s: %v", tc.name, err)
			}
			if got.Generation != tc.wantGen {
				t.Fatalf("recovered generation %d, want %d", got.Generation, tc.wantGen)
			}
			if got.Step != int(tc.wantGen) {
				t.Fatalf("recovered step %d, want %d", got.Step, tc.wantGen)
			}
			assertRunStateEqual(t, sampleRunState(int(tc.wantGen)), got)
		})
	}
}

// TestRunStoreAllGenerationsCorrupt: when nothing on disk validates,
// LoadLatest must fail loudly rather than fabricate state.
func TestRunStoreAllGenerationsCorrupt(t *testing.T) {
	s := &RunStore{Dir: t.TempDir()}
	if _, _, err := s.Save(sampleRunState(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir, runGenName(1))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatest(); err == nil {
		t.Fatal("LoadLatest over all-corrupt directory must fail")
	}
	if _, err := (&RunStore{Dir: filepath.Join(t.TempDir(), "empty")}).LoadLatest(); err == nil {
		t.Fatal("LoadLatest over empty directory must fail")
	}
}

// TestDecodeRunRejectsTrailingBytes: extra bytes after a valid body mean
// the frame length lied; reject rather than ignore.
func TestDecodeRunRejectsTrailingBytes(t *testing.T) {
	s := &RunStore{Dir: t.TempDir()}
	if _, _, err := s.Save(sampleRunState(1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir, runGenName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir, runGenName(1)), append(raw, 0xAB), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.loadGeneration(1); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestAsyncWriterWritesAndCloses(t *testing.T) {
	stats := obs.NewCounters(nil)
	s := &RunStore{Dir: t.TempDir()}
	w := NewAsyncWriter(s, stats)
	for step := 1; step <= 3; step++ {
		// Submissions may be skipped under load; loop until accepted so
		// the test is deterministic.
		for !w.Submit(sampleRunState(step)) {
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 3 {
		t.Fatalf("latest step = %d, want 3", got.Step)
	}
	if writes, failures := stats.Get(obs.CkptWrites), stats.Get(obs.CkptFailures); writes != 3 || failures != 0 {
		t.Fatalf("%d writes, %d failures, want 3 and 0", writes, failures)
	}
	if gen, size := stats.Get(obs.CkptGeneration), stats.Get(obs.CkptLastBytes); gen != 3 || size <= 0 {
		t.Fatalf("gauges: generation %d, %d bytes", gen, size)
	}
	if last, total := stats.Get(obs.CkptLastWriteNanos), stats.Get(obs.CkptTotalWriteNanos); last <= 0 || total < last {
		t.Fatalf("gauges: last write %d ns, all writes %d ns", last, total)
	}
	// Submitting after Close must refuse, not panic on a closed channel.
	if w.Submit(sampleRunState(4)) {
		t.Fatal("Submit after Close must return false")
	}
	// Close must be idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncWriterSkipWhenBusy: with the drain loop not running, the
// one-slot channel fills after one Submit and the next is a counted skip.
func TestAsyncWriterSkipWhenBusy(t *testing.T) {
	stats := obs.NewCounters(nil)
	w := &AsyncWriter{store: &RunStore{Dir: t.TempDir()}, stats: stats, ch: make(chan *RunState, 1)}
	if !w.Submit(sampleRunState(1)) {
		t.Fatal("first Submit must be accepted")
	}
	if w.Submit(sampleRunState(2)) {
		t.Fatal("second Submit must be skipped while the slot is full")
	}
	if skips := stats.Get(obs.CkptSkips); skips != 1 {
		t.Fatalf("skips = %d, want 1", skips)
	}
}

// TestAsyncWriterLatchesErrors: a failing store surfaces through Err and
// the failure counter without killing the loop.
func TestAsyncWriterLatchesErrors(t *testing.T) {
	stats := obs.NewCounters(nil)
	w := NewAsyncWriter(&RunStore{}, stats) // Dir unset: every Save fails
	for !w.Submit(sampleRunState(1)) {
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close must return the latched write error")
	}
	if w.firstErr() == nil {
		t.Fatal("Err must latch the first failure")
	}
	if failures, writes := stats.Get(obs.CkptFailures), stats.Get(obs.CkptWrites); failures != 1 || writes != 0 {
		t.Fatalf("%d failures, %d writes, want 1 and 0", failures, writes)
	}
}

// churnRunState is a run state at stepbench churn's shape: 16 experts of
// three 128×448 tensors each (a 22 020 688-byte VELAEXS2 section) beside
// a small backbone with moments. rows scales the expert tensors for the tests
// that want the same structure at a different size.
func churnRunState(rows int) *RunState {
	rs := sampleRunState(40)
	rs.Experts = &ExpertSnapshot{Step: 40}
	for x := 0; x < 16; x++ {
		en := ExpertEntry{Layer: x / 8, Expert: x % 8}
		for ti := 0; ti < 3; ti++ {
			data := make([]float64, rows*448)
			for i := range data {
				data[i] = float64(x*3+ti) + float64(i)/float64(len(data))
			}
			en.Tensors = append(en.Tensors, StateTensor{Rows: rows, Cols: 448, Data: data})
		}
		rs.Experts.Entries = append(rs.Experts.Entries, en)
	}
	return rs
}

// TestRunStoreLoadsLargeExpertSection: a generation whose embedded expert
// section is larger than 16 MiB — every generation churn writes — must
// load: a section's byte length is bounded by the bytes that remain, not
// by a fixed count limit.
func TestRunStoreLoadsLargeExpertSection(t *testing.T) {
	want := churnRunState(128)
	if sec, err := encodeExpertSnapshot(want.Experts); err != nil || len(sec) <= 1<<24 {
		t.Fatalf("expert section is %d bytes (err %v), want > 16 MiB", len(sec), err)
	}
	s := &RunStore{Dir: t.TempDir()}
	if _, _, err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("large generation did not round-trip")
	}
}

// TestRunStoreSaveRejectsMalformedTensor: a tensor whose shape disagrees
// with its payload, in any section, fails the Save — nothing is written
// (in particular not a generation silently missing its experts), the
// generation number is not consumed, and the async writer counts it.
func TestRunStoreSaveRejectsMalformedTensor(t *testing.T) {
	bad := StateTensor{Rows: 2, Cols: 2, Data: []float64{1}}
	cases := map[string]func(rs *RunState){
		"backbone": func(rs *RunState) { rs.Backbone[1].StateTensor = bad },
		"moment m": func(rs *RunState) { rs.OptM[0] = bad },
		"moment v": func(rs *RunState) { rs.OptV[1] = bad },
		"experts":  func(rs *RunState) { rs.Experts.Entries[1].Tensors[0] = bad },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := &RunStore{Dir: t.TempDir()}
			rs := sampleRunState(1)
			corrupt(rs)
			if _, _, err := s.Save(rs); err == nil {
				t.Fatal("Save of a malformed tensor must fail")
			}
			if entries, err := os.ReadDir(s.Dir); err != nil || len(entries) != 0 {
				t.Fatalf("failed Save left %d files behind (err %v)", len(entries), err)
			}
			if gen, _, err := s.Save(sampleRunState(1)); err != nil || gen != 1 {
				t.Fatalf("Save after the failure = generation %d (err %v), want 1", gen, err)
			}

			stats := obs.NewCounters(nil)
			w := NewAsyncWriter(&RunStore{Dir: t.TempDir()}, stats)
			for !w.Submit(rs) {
			}
			if err := w.Close(); err == nil {
				t.Fatal("async writer must latch the encode error")
			}
			if failures, writes := stats.Get(obs.CkptFailures), stats.Get(obs.CkptWrites); failures != 1 || writes != 0 {
				t.Fatalf("%d failures, %d writes, want 1 and 0", failures, writes)
			}
		})
	}
}

// TestEncodeRunAllocsIndependentOfSize: encoding allocates its one
// buffer (plus the dry run's header scratch) however many values the
// state holds.
func TestEncodeRunAllocsIndependentOfSize(t *testing.T) {
	allocs := func(rs *RunState) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := encodeRun(rs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(churnRunState(1)), allocs(churnRunState(47)) // ~21 k and ~1 M values
	if small > 16 || large > small+1 {
		t.Fatalf("encodeRun allocs: %v for ~21k values, %v for ~1M — must not scale with size", small, large)
	}
}
