package broker

import (
	"math"
	"testing"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestHalfPrecisionFineTuning: with 16-bit wire encoding the brokered run
// tracks the full-precision local run closely but not exactly — the
// deliberate trade the paper's systems make by exchanging fp16 features.
func TestHalfPrecisionFineTuning(t *testing.T) {
	cfg := testConfig()
	const workers = 3
	const steps = 3
	const batch, seq = 2, 5

	ids := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range ids {
		ids[i] = (i * 7) % cfg.Vocab
		targets[i] = (i*7 + 1) % cfg.Vocab
	}

	run := func(enc wire.Encoding) []float64 {
		m, grid := buildFinetuneSetup(cfg, 7)
		dep := StartLocalWorkers(workers, DefaultWorkerConfig())
		exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, workers))
		exec.WireEncoding = enc
		spec := ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}
		if err := exec.Distribute(grid, spec); err != nil {
			t.Fatal(err)
		}
		m.SetExecutor(exec)
		backbone := nn.CollectTrainable(m.Params())
		opt := nn.NewAdamW(backbone, nn.PaperAdamWConfig())
		var losses []float64
		for s := 0; s < steps; s++ {
			nn.ZeroGrads(backbone)
			if err := exec.ZeroGrads(); err != nil {
				t.Fatal(err)
			}
			logits, err := m.Forward(ids, batch, seq)
			if err != nil {
				t.Fatal(err)
			}
			loss, dl := nn.NewLoss().CrossEntropy(logits, targets)
			losses = append(losses, loss)
			if err := m.Backward(dl); err != nil {
				t.Fatal(err)
			}
			opt.Step()
			if err := exec.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := exec.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := dep.Wait(); err != nil {
			t.Fatal(err)
		}
		return losses
	}

	full := run(wire.EncFP64)
	half := run(wire.EncFP16)
	diverged := false
	for s := range full {
		rel := math.Abs(full[s]-half[s]) / (math.Abs(full[s]) + 1e-12)
		if rel > 0.02 {
			t.Fatalf("step %d: half-precision run diverged: %.6f vs %.6f", s, half[s], full[s])
		}
		if !testutil.BitEqual(full[s], half[s]) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("half precision had no effect — encoding not applied?")
	}

	// int8 end-to-end: the loss trajectory must stay equivalent to the
	// exact run within a looser tolerance (8-bit activations), and must
	// not be bit-identical (the quantization actually happened).
	int8Run := run(wire.EncInt8)
	diverged = false
	for s := range full {
		rel := math.Abs(full[s]-int8Run[s]) / (math.Abs(full[s]) + 1e-12)
		if rel > 0.10 {
			t.Fatalf("step %d: int8 run diverged: %.6f vs %.6f", s, int8Run[s], full[s])
		}
		if !testutil.BitEqual(full[s], int8Run[s]) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("int8 encoding had no effect — encoding not applied?")
	}
}

// TestHalfFrameSizeShrinks: the physical frame for a half payload is ~4×
// smaller than the full-precision frame.
func TestHalfFrameSizeShrinks(t *testing.T) {
	data := make([]float64, 1024)
	fullMsg := multiFrame(false, 0, []int{0}, wire.Matrix{Rows: 32, Cols: 32, Data: data})
	halfMsg := multiFrame(false, 0, []int{0}, wire.Matrix{Rows: 32, Cols: 32, Data: data, Enc: wire.EncFP16})
	fullLen, halfLen := wire.EncodedSize(fullMsg), wire.EncodedSize(halfMsg)
	if halfLen >= fullLen/3 {
		t.Fatalf("half frame %dB not ≪ full frame %dB", halfLen, fullLen)
	}
}

// TestWorkerMirrorsHalfEncoding: the reply to a half-precision request is
// itself half-precision.
func TestWorkerMirrorsHalfEncoding(t *testing.T) {
	cfg := moe.Config{Vocab: 10, D: 4, Heads: 1, Hidden: 6, Layers: 1, Experts: 1, TopK: 1}
	_, grid := buildFinetuneSetup(cfg, 9)
	w := NewWorker(0, DefaultWorkerConfig())
	if reply, _ := w.handle(encodeExpert(grid[0][0], ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4})); reply.Type != wire.MsgAck {
		t.Fatal("assign failed")
	}
	req := multiFrame(false, 0, []int{0}, wire.Matrix{Rows: 2, Cols: 4, Data: make([]float64, 8), Enc: wire.EncFP16})
	reply, _ := w.handle(req)
	if reply.Type != wire.MsgForwardMultiResult {
		t.Fatalf("forward failed: %s", reply.Text)
	}
	if reply.Tensors[1].Enc != wire.EncFP16 {
		t.Fatal("worker must mirror the request's half encoding")
	}
}
