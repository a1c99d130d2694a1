package broker

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// The tests of the base/delta split of expert state (codec.go's header
// comment). The whole-run pin — snapshot, migrate, failover, resume,
// bit-for-bit against the parent — is TestPinnedRunMatchesParent.

// trainedWorker assigns one freshly built expert (with an adapter when
// the spec has a rank) to a worker and drives two training rounds, so B
// and the AdamW moments are nonzero. It returns the worker and the expert
// as it was assigned: the master's copy, frozen weights current,
// trainable ones stale.
func trainedWorker(t *testing.T, spec ExpertSpec) (*Worker, *moe.Expert) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: 0}, rng, spec.D, spec.Hidden, true)
	if spec.LoRARank > 0 {
		ex.AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
	}
	w := NewWorker(0, DefaultWorkerConfig())
	if reply, _ := w.handle(encodeExpert(ex, spec)); reply.Type != wire.MsgAck {
		t.Fatalf("assign: %v %s", reply.Type, reply.Text)
	}
	x := wire.Matrix{Rows: 3, Cols: spec.D, Data: make([]float64, 3*spec.D)}
	dy := wire.Matrix{Rows: 3, Cols: spec.D, Data: make([]float64, 3*spec.D)}
	for i := range x.Data {
		x.Data[i], dy.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	applyTrainingRound(t, w, &x, &dy)
	applyTrainingRound(t, w, &x, &dy)
	return w, ex
}

func snapshotOf(t *testing.T, w *Worker) *wire.Message {
	t.Helper()
	reply, _ := w.handle(&wire.Message{Type: wire.MsgSnapshot, Layer: 0, Expert: 0})
	if reply.Type != wire.MsgSnapshotResult {
		t.Fatalf("snapshot: %v %s", reply.Type, reply.Text)
	}
	return reply
}

// TestSpecLayoutMatchesBuiltExpert: the shape list the decoder validates
// against is the parameter list nn actually builds, with and without an
// adapter.
func TestSpecLayoutMatchesBuiltExpert(t *testing.T) {
	for _, spec := range []ExpertSpec{{D: 4, Hidden: 6}, {D: 5, Hidden: 3, LoRARank: 2, LoRAAlpha: 4}} {
		ex := moe.NewExpert(moe.ExpertID{}, nil, spec.D, spec.Hidden, true)
		if spec.LoRARank > 0 {
			ex.AttachLoRA(nil, spec.LoRARank, spec.LoRAAlpha)
		}
		params, layout := ex.Params(), spec.layout()
		if len(params) != len(layout) {
			t.Fatalf("%+v: %d params, layout lists %d", spec, len(params), len(layout))
		}
		for i, p := range params {
			if got := (paramShape{p.Value.Rows(), p.Value.Cols(), !p.Trainable}); got != layout[i] {
				t.Fatalf("%+v: param %d (%s) is %+v, layout says %+v", spec, i, p.Name, got, layout[i])
			}
		}
	}
}

// TestSnapshotOfLoRAExpertCarriesNoFrozenTensor: the reply is the 7-column
// row, the six adapter matrices and their six moment pairs — and its frame
// is exactly that many bytes, not merely that many tensors.
func TestSnapshotOfLoRAExpertCarriesNoFrozenTensor(t *testing.T) {
	spec := ExpertSpec{D: 16, Hidden: 40, LoRARank: 2, LoRAAlpha: 4}
	w, ex := trainedWorker(t, spec)
	snap := snapshotOf(t, w)

	want := &wire.Message{Type: wire.MsgSnapshotResult, Tensors: []wire.Matrix{{Rows: 1, Cols: 7, Data: make([]float64, 7)}}}
	values := 0
	for _, p := range spec.layout() {
		if p.frozen {
			continue
		}
		values += p.rows * p.cols
		for i := 0; i < 3; i++ { // the parameter, m, v
			want.Tensors = append(want.Tensors, wire.Matrix{Rows: p.rows, Cols: p.cols, Data: make([]float64, p.rows*p.cols)})
		}
	}
	if got, want := wire.EncodedSize(snap), wire.EncodedSize(want); got != want {
		t.Fatalf("snapshot frame is %d bytes, want %d (7-column row + %d trainable values x3)", got, want, values)
	}
	if full := wire.EncodedSize(encodeExpert(ex, spec)); wire.EncodedSize(snap) >= full/2 {
		t.Fatalf("snapshot frame %d bytes vs %d for the full assign: the frozen weights still travel", wire.EncodedSize(snap), full)
	}
	for i, ts := range snap.Tensors {
		if ts.Rows*ts.Cols == spec.D*spec.Hidden {
			t.Fatalf("tensor %d is %dx%d: a frozen projection", i, ts.Rows, ts.Cols)
		}
	}
	en, err := parseEntry(snap.Tensors)
	if err != nil || !en.delta || en.opt == nil || en.opt.Step != 2 {
		t.Fatalf("snapshot parses as %+v (err %v), want a delta entry at AdamW step 2", en, err)
	}
	if sum := baseSum(frozenOf(ex)); en.baseSum != sum {
		t.Fatalf("delta names base %08x, the assigned weights hash to %08x", en.baseSum, sum)
	}
}

// TestComposeRebuildsTheFullEntry: compose(base, delta) is, tensor for
// tensor and bit for bit, the full entry the parent's snapshot would have
// carried — and it views the base, it does not copy it.
func TestComposeRebuildsTheFullEntry(t *testing.T) {
	spec := ExpertSpec{D: 6, Hidden: 10, LoRARank: 2, LoRAAlpha: 8}
	w, ex := trainedWorker(t, spec)
	hosted := w.experts[ex.ID]
	full := encodeExpertState(hosted, spec, w.optStateOf(hosted)).Tensors // the parent's snapshot payload

	master := NewExecutor(nil, nil)
	master.SetBase([][]*moe.Expert{{ex}})
	got, err := master.compose(ex.ID, snapshotOf(t, w).Tensors)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full) {
		t.Fatalf("composed entry has %d tensors, the full one %d", len(got), len(full))
	}
	for i := range full {
		if got[i].Rows != full[i].Rows || got[i].Cols != full[i].Cols || !testutil.BitEqualSlices(got[i].Data, full[i].Data) {
			t.Fatalf("tensor %d of the composed entry differs from the full entry", i)
		}
	}
	if &got[1].Data[0] != &ex.Params()[0].Value.Data[0] {
		t.Fatal("composed entry copied the base; it must view the grid's tensor")
	}

	// A full entry composes to itself.
	same, err := master.compose(ex.ID, full)
	if err != nil || !reflect.DeepEqual(same, full) {
		t.Fatalf("full entry did not pass through compose unchanged (err %v)", err)
	}
}

// TestComposeRefusesAForeignBase: one flipped bit in one frozen weight and
// the delta no longer composes; the error names the expert.
func TestComposeRefusesAForeignBase(t *testing.T) {
	spec := ExpertSpec{D: 6, Hidden: 10, LoRARank: 2, LoRAAlpha: 8}
	w, ex := trainedWorker(t, spec)
	delta := snapshotOf(t, w).Tensors

	master := NewExecutor(nil, nil)
	if _, err := master.compose(ex.ID, delta); err == nil || !strings.Contains(err.Error(), "no base registered") {
		t.Fatalf("compose without a base = %v", err)
	}
	w2 := ex.Params()[6].Value.Data // w2's weight
	w2[17] = math.Float64frombits(math.Float64bits(w2[17]) ^ 1)
	master.SetBase([][]*moe.Expert{{ex}})
	_, err := master.compose(ex.ID, delta)
	if err == nil || !strings.Contains(err.Error(), "L0/E0") || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("compose over a base one bit off = %v, want a refusal naming L0/E0", err)
	}
}

// TestNoLoRAMeansNoDelta: with nothing frozen, the snapshot is the full
// entry the parent sent, and the master registers no base.
func TestNoLoRAMeansNoDelta(t *testing.T) {
	spec := ExpertSpec{D: 6, Hidden: 10}
	w, ex := trainedWorker(t, spec)
	hosted := w.experts[ex.ID]
	full := encodeExpertState(hosted, spec, w.optStateOf(hosted)).Tensors
	snap := snapshotOf(t, w).Tensors
	if len(snap) != len(full) || snap[0].Cols != 6 {
		t.Fatalf("snapshot has %d tensors under a %d-column row, want the full entry's %d under 6", len(snap), snap[0].Cols, len(full))
	}
	for i := range full {
		if !testutil.BitEqualSlices(snap[i].Data, full[i].Data) {
			t.Fatalf("tensor %d differs from the full entry", i)
		}
	}
	master := NewExecutor(nil, nil)
	master.SetBase([][]*moe.Expert{{ex}})
	if len(master.base) != 0 {
		t.Fatalf("%d experts registered a base, want none", len(master.base))
	}
	if got, err := master.compose(ex.ID, snap); err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("full entry did not pass through compose unchanged (err %v)", err)
	}
}

// TestBaseViewsSurviveTrainingOverChanTransport: a composed assign is
// built from the master's base views, and no transport may write through
// them — the chan pipe once delivered messages by pointer, so this stays
// as a regression. After training steps, a migration of every expert and
// a restore of every expert from the snapshot, the master's base is
// still the grid's memory and still the bits it started with.
func TestBaseViewsSurviveTrainingOverChanTransport(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
	const steps, workers = 5, 2
	cfg := testConfig()
	model, grid := buildFinetuneSetup(cfg, 37)
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		t.Fatal(err)
	}
	model.SetExecutor(exec)
	before := make(map[moe.ExpertID][][]float64)
	for _, row := range grid {
		for _, ex := range row {
			for _, m := range frozenOf(ex) {
				before[ex.ID] = append(before[ex.ID], append([]float64(nil), m.Data...))
			}
		}
	}

	sup := NewSupervisor(exec, uniformProblem(cfg, workers), SupervisorConfig{})
	backbone := nn.CollectTrainable(model.Params())
	ft := &trainer.Finetuner{
		Model: model, Backbone: backbone, Opt: nn.NewSGD(backbone, 0.05),
		Batcher:    &chaosBatcher{rng: rand.New(rand.NewSource(31)), vocab: cfg.Vocab, batch: 2, seqLen: 8},
		ExpertZero: exec.ZeroGrads, ExpertStep: exec.Step,
		OnStep: func(step int) error {
			if err := sup.Checkpoint(step); err != nil {
				return err
			}
			switch step {
			case 1: // every expert changes host
				next := exec.Assignment().Clone()
				for l := range next.Worker {
					for e := range next.Worker[l] {
						next.Worker[l][e] = 1 - next.Worker[l][e]
					}
				}
				_, err := exec.Rebalance(next)
				return err
			case 3: // every expert is re-installed from the snapshot
				return exec.RestoreExperts(sup.Latest().Entries, exec.Assignment())
			}
			return nil
		},
	}
	if err := ft.Run(steps, nil); err != nil {
		t.Fatal(err)
	}
	if err := exec.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}

	if len(exec.base) != cfg.Layers*cfg.Experts {
		t.Fatalf("%d experts have a base, want %d", len(exec.base), cfg.Layers*cfg.Experts)
	}
	for _, row := range grid {
		for _, ex := range row {
			views := exec.base[ex.ID].tensors
			for i, m := range frozenOf(ex) {
				if &views[i].Data[0] != &m.Data[0] {
					t.Fatalf("%v: base tensor %d is a copy, not a view of the grid", ex.ID, i)
				}
				if !testutil.BitEqualSlices(m.Data, before[ex.ID][i]) {
					t.Fatalf("%v: frozen tensor %d changed while training ran", ex.ID, i)
				}
			}
		}
	}
}

// TestDecodeExpertStateValidatesBeforeBuilding: a metadata row that lies
// about the payload is refused on the row and the shipped shapes alone.
// Before, the expert was built first — by the row's own say-so.
func TestDecodeExpertStateValidatesBeforeBuilding(t *testing.T) {
	spec := ExpertSpec{D: 4, Hidden: 6, LoRARank: 2, LoRAAlpha: 4}
	w, ex := trainedWorker(t, spec)
	hosted := w.experts[ex.ID]
	good := func() *wire.Message {
		m := encodeExpertState(hosted, spec, w.optStateOf(hosted))
		m.Tensors[0].Data = append([]float64(nil), m.Tensors[0].Data...)
		return m
	}
	if _, _, err := decodeExpertState(good()); err != nil {
		t.Fatalf("well-formed assign rejected: %v", err)
	}
	meta := func(col int, v float64) *wire.Message {
		m := good()
		m.Tensors[0].Data[col] = v
		return m
	}
	transposed := good()
	transposed.Tensors[1].Rows, transposed.Tensors[1].Cols = transposed.Tensors[1].Cols, transposed.Tensors[1].Rows
	short := good()
	short.Tensors[2].Data = short.Tensors[2].Data[:3]
	delta := good()
	delta.Tensors = snapshotOf(t, w).Tensors
	for name, m := range map[string]*wire.Message{
		"D of 2^40":           meta(0, 1<<40),
		"Hidden of 1e300":     meta(1, 1e300),
		"NaN D":               meta(0, math.NaN()),
		"fractional Hidden":   meta(1, 6.5),
		"negative rank":       meta(2, -1),
		"rank the row forgot": meta(2, 0),
		"one pair too few":    meta(4, 5),
		"negative step":       meta(5, -1),
		"transposed param":    transposed,
		"short payload":       short,
		"delta entry":         delta,
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, _, err := decodeExpertState(m); err == nil {
				t.Errorf("%s: must fail", name)
			}
		})
		if allocs > 40 {
			t.Errorf("%s: refusal cost %v allocations; it must not build the expert first", name, allocs)
		}
	}
}
