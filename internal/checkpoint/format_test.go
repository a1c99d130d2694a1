package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/moe"
)

// The three files under testdata/ were written by the commit before the
// shared codec landed (the element-at-a-time binary.Write serialisers),
// from exactly the values the fixture* builders below return. They pin
// the byte formats: each must decode to those values and re-encode to the
// identical bytes. Regenerating them with this package's own encoder
// would defeat the test.

// fixtureModel is a tiny VELACKP1 model whose every weight is a formula
// of its position, so the expectation does not depend on the initialiser.
func fixtureModel() (*moe.Model, [][]*moe.Expert) {
	cfg := moe.Config{Vocab: 5, D: 4, Heads: 2, Hidden: 3, Layers: 1, Experts: 2, TopK: 1}
	rng := rand.New(rand.NewSource(1))
	m := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	for i, p := range allParams(m, grid) {
		for j := range p.Value.Data {
			p.Value.Data[j] = float64(i) + float64(j)/64 - 0.5
		}
	}
	return m, grid
}

// fixtureSnapshot is a VELAEXS2 snapshot in the broker's MsgAssign
// layout with the optimizer slice present: a 6-column metadata row, the
// parameters, then one (m, v) moment pair. The payload includes the
// values a lossy codec would disturb (−0, a subnormal, ±Inf).
func fixtureSnapshot() *ExpertSnapshot {
	return &ExpertSnapshot{
		Step: 7,
		Entries: []ExpertEntry{
			{Layer: 0, Expert: 1, Tensors: []StateTensor{
				{Rows: 1, Cols: 6, Data: []float64{4, 3, 2, 4, 1, 7}},
				{Rows: 4, Cols: 3, Data: []float64{0.5, -0.25, 0.125, 1, 2, 3, -1, -2, -3, 1e-3, 1e3, 1e-300}},
				{Rows: 2, Cols: 3, Data: []float64{math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.MaxFloat64, 1}},
				{Rows: 2, Cols: 3, Data: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}},
				{Rows: 2, Cols: 3, Data: []float64{1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4}},
			}},
			{Layer: 1, Expert: 0, Tensors: []StateTensor{
				{Rows: 1, Cols: 6, Data: []float64{4, 3, 0, 0, 0, 0}},
				{Rows: 3, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
			}},
		},
	}
}

// fixtureRunState is a VELARUN1 state with every optional section
// present: moments, experts, drift matrices and the replace controller.
func fixtureRunState() *RunState {
	return &RunState{
		Generation: 1,
		Step:       12,
		Losses:     []float64{3.5, 3.25, 3.75, 2.0625},
		Backbone: []NamedTensor{
			{Name: "blocks.0.attn.wq.lora.A", StateTensor: StateTensor{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}},
			{Name: "blocks.0.attn.wq.lora.B", StateTensor: StateTensor{Rows: 1, Cols: 2, Data: []float64{-0.5, 0.25}}},
		},
		OptStep: 12,
		OptM: []StateTensor{
			{Rows: 2, Cols: 3, Data: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}},
			{Rows: 1, Cols: 2, Data: []float64{0.01, 0.02}},
		},
		OptV: []StateTensor{
			{Rows: 2, Cols: 3, Data: []float64{1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4}},
			{Rows: 1, Cols: 2, Data: []float64{1e-5, 2e-5}},
		},
		Experts:         fixtureSnapshot(),
		Cursor:          []int64{768, 1, -3},
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

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFormatsUnchanged: parent-written files decode to the expected
// values and this package's encoder reproduces them byte for byte.
func TestFormatsUnchanged(t *testing.T) {
	t.Run("VELACKP1", func(t *testing.T) {
		raw := readFixture(t, "model.vckp")
		m, grid, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantM, wantGrid := fixtureModel()
		if m.Cfg != wantM.Cfg {
			t.Fatalf("config = %+v, want %+v", m.Cfg, wantM.Cfg)
		}
		got, want := allParams(m, grid), allParams(wantM, wantGrid)
		if len(got) != len(want) {
			t.Fatalf("%d params, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || !reflect.DeepEqual(got[i].Value.Data, want[i].Value.Data) {
				t.Fatalf("param %d (%s) differs from the fixture's formula", i, want[i].Name)
			}
		}
		again, err := Encode(m, grid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatal("re-encoded VELACKP1 bytes differ from the parent-written file")
		}
	})
	t.Run("VELAEXS2", func(t *testing.T) {
		raw := readFixture(t, "experts.vexs")
		got, err := decodeExpertSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fixtureSnapshot()) {
			t.Fatalf("decoded snapshot = %+v", got)
		}
		again, err := encodeExpertSnapshot(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatal("re-encoded VELAEXS2 bytes differ from the parent-written file")
		}
	})
	t.Run("VELARUN1", func(t *testing.T) {
		raw := readFixture(t, runGenName(1))
		got, err := decodeRun(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fixtureRunState()) {
			t.Fatalf("decoded run state = %+v", got)
		}
		again, err := encodeRun(got)
		if err != nil {
			t.Fatal(err)
		}
		// The fixture's step-ordinal slot holds 19; the slot is retired,
		// so this encoder writes 0 there, and the trailer follows. Every
		// other byte is the parent's.
		const slot = 24 + 8 // header (magic, generation, body length), then Step
		if v := binary.LittleEndian.Uint64(raw[slot:]); v != 19 {
			t.Fatalf("fixture's step-ordinal slot holds %d, want 19", v)
		}
		want := bytes.Clone(raw)
		clear(want[slot : slot+8])
		binary.LittleEndian.PutUint32(want[len(want)-4:], crc32.Checksum(want[:len(want)-4], castagnoli))
		if !bytes.Equal(again, want) {
			t.Fatal("re-encoded VELARUN1 bytes differ from the parent-written file outside the step-ordinal slot")
		}
	})
}
