// Package checkpoint persists the three kinds of state a run leaves on
// disk, each in its own little-endian format:
//
//   - VELACKP1 (this file): the pre-trained model — backbone + expert
//     grid — so a manufactured checkpoint can be trained once and reused
//     across experiment runs, the moral equivalent of the paper
//     downloading TinyMistral from HuggingFace.
//   - VELAEXS2 (state.go): the fine-tuning-time state of every expert,
//     LoRA adapters and AdamW moments included — the broker's failover
//     substrate.
//   - VELARUN1 (run.go): everything a master needs to resume an
//     interrupted run bit-identically, as CRC-trailed generation files.
//
// All three are written in one codec (codec.go): an append-style encoder
// that validates and sizes before its first byte, a slice decoder that
// bounds every count by the bytes that remain, wire's float64 block loop
// for the payloads, and one fsynced writeAtomic for every file.
//
// VELACKP1 captures the *pre-trained* state: save before attaching LoRA
// adapters (the adapter layout is a fine-tuning-time choice, recreated by
// trainer.PrepareForFinetune after loading). Format (little-endian):
//
//	magic "VELACKP1"
//	7 × int32: Vocab, D, Heads, Hidden, Layers, Experts, TopK
//	int32 paramCount, then per parameter:
//	  int32 nameLen, name bytes, int32 numel, float64 × numel
//
// Parameters are matched positionally against a freshly constructed model
// of the same configuration, with names verified, so any architecture
// drift fails loudly instead of silently misloading.
package checkpoint

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/moe"
	"repro/internal/nn"
)

const magic = "VELACKP1"

// allParams returns backbone + expert parameters in deterministic order.
func allParams(model *moe.Model, grid [][]*moe.Expert) []*nn.Param {
	ps := model.Params()
	for _, row := range grid {
		for _, e := range row {
			ps = append(ps, e.Params()...)
		}
	}
	return ps
}

// Encode returns the VELACKP1 encoding of the model and its expert grid.
func Encode(model *moe.Model, grid [][]*moe.Expert) ([]byte, error) {
	cfg, params := model.Cfg, allParams(model, grid)
	return encode(func(e *encoder) {
		e.raw(magic)
		for _, v := range []int{cfg.Vocab, cfg.D, cfg.Heads, cfg.Hidden, cfg.Layers, cfg.Experts, cfg.TopK} {
			e.i32(v)
		}
		e.i32(len(params))
		for _, p := range params {
			if strings.Contains(p.Name, ".lora.") {
				e.fail("refusing to save LoRA state %q; save before PrepareForFinetune", p.Name)
			}
			e.i32(len(p.Name))
			e.raw(p.Name)
			e.i32(p.Value.Len())
			e.floats(p.Value.Data)
		}
	})
}

// Decode parses a VELACKP1 encoding, reconstructing the model and expert
// grid with all parameters trainable (callers freeze / attach LoRA as
// needed).
func Decode(raw []byte) (*moe.Model, [][]*moe.Expert, error) {
	d := decoder{raw: raw}
	d.magic(magic)
	cfg := moe.Config{
		Vocab: d.i32(), D: d.i32(), Heads: d.i32(), Hidden: d.i32(),
		Layers: d.i32(), Experts: d.i32(), TopK: d.i32(),
	}
	if d.err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", d.err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}

	// Weights are overwritten below; the RNG only shapes the skeleton.
	rng := rand.New(rand.NewSource(1))
	model := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	params := allParams(model, grid)

	if count := d.i32(); d.err == nil && count != len(params) {
		return nil, nil, fmt.Errorf("checkpoint: file has %d params, architecture has %d", count, len(params))
	}
	for i, p := range params {
		name := string(d.take(d.i32()))
		numel := d.i32()
		if d.err != nil {
			break
		}
		if name != p.Name {
			return nil, nil, fmt.Errorf("checkpoint: param %d is %q in file, %q in architecture", i, name, p.Name)
		}
		if numel != p.Value.Len() {
			return nil, nil, fmt.Errorf("checkpoint: param %q has %d values in file, want %d", p.Name, numel, p.Value.Len())
		}
		d.floatsInto(p.Value.Data)
	}
	if err := d.finish(); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return model, grid, nil
}

// SaveFile writes the checkpoint to path through the package's one
// atomic, fsynced writer.
func SaveFile(path string, model *moe.Model, grid [][]*moe.Expert) error {
	data, err := Encode(model, grid)
	if err != nil {
		return err
	}
	return writeAtomic(path, data, nil)
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*moe.Model, [][]*moe.Expert, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return Decode(raw)
}
