package checkpoint

import "fmt"

// This file holds the runtime expert-state snapshot format — the
// recovery substrate of the fault-tolerant broker. Unlike the
// pre-training checkpoint (Save/Load), an ExpertSnapshot captures the
// *fine-tuning-time* state of every expert, LoRA adapters included, as
// one tensor list per expert. The list's meaning is the broker's
// (broker/codec.go): a metadata row, parameter tensors in canonical
// order, then one (m, v) AdamW moment pair per trainable parameter, so
// failover and run-level resume restore the optimizer trajectory exactly.
// This package neither reads the row nor counts the tensors — which is
// why the two layouts the broker writes share one container and one
// magic:
//
//   - a full entry (6-column row [D, Hidden, LoRARank, LoRAAlpha,
//     numMomentPairs, optStep], every parameter) is the MsgAssign
//     payload. Every generation written before the broker had deltas
//     holds these;
//   - a delta entry (7-column row: the same plus the CRC32C of the
//     frozen parameters; trainable parameters only) is what snapshots
//     and run generations hold now. The frozen weights stay on the
//     workers and in the master's grid; the broker composes the two
//     back into a full entry when it restores one.
//
// The pre-moments V1 format is no longer read: nothing writes it.
//
// Format (little-endian):
//
//	magic "VELAEXS2"
//	int32 step (the fine-tuning step the snapshot was taken after)
//	int32 numEntries, then per entry:
//	  int32 layer, int32 expert, int32 numTensors, per tensor:
//	    int32 rows, int32 cols, float64 × rows·cols

const stateMagic = "VELAEXS2"

// StateTensor is one dense matrix of an expert snapshot entry.
type StateTensor struct {
	Rows, Cols int
	Data       []float64
}

// ExpertEntry is the captured state of one expert: its grid coordinates
// and its tensors in one of the broker's two entry layouts (metadata row
// first; see the header comment).
type ExpertEntry struct {
	Layer, Expert int
	Tensors       []StateTensor
}

// ExpertSnapshot is the state of every expert in the grid at one
// fine-tuning step boundary.
type ExpertSnapshot struct {
	Step    int
	Entries []ExpertEntry
}

// Find returns the entry for expert (layer, e), or nil.
func (s *ExpertSnapshot) Find(layer, e int) *ExpertEntry {
	for i := range s.Entries {
		if s.Entries[i].Layer == layer && s.Entries[i].Expert == e {
			return &s.Entries[i]
		}
	}
	return nil
}

// snapshot appends the VELAEXS2 encoding of s.
func (e *encoder) snapshot(s *ExpertSnapshot) {
	e.raw(stateMagic)
	e.i32(s.Step)
	e.i32(len(s.Entries))
	for _, en := range s.Entries {
		e.i32(en.Layer)
		e.i32(en.Expert)
		e.i32(len(en.Tensors))
		for _, t := range en.Tensors {
			e.i32(t.Rows)
			e.i32(t.Cols)
			e.payload(t)
		}
	}
}

// decodeExpertSnapshot parses a VELAEXS2 encoding. Malformed input of
// any kind is an error, never a panic, and never an allocation larger
// than the input justifies.
func decodeExpertSnapshot(raw []byte) (*ExpertSnapshot, error) {
	d := decoder{raw: raw}
	d.magic(stateMagic)
	s := &ExpertSnapshot{Step: d.i32()}
	s.Entries = make([]ExpertEntry, d.count(d.i32(), 12, "snapshot entry"))
	for i := range s.Entries {
		en := &s.Entries[i]
		en.Layer, en.Expert = d.i32(), d.i32()
		en.Tensors = make([]StateTensor, d.count(d.i32(), 8, "snapshot tensor"))
		for ti := range en.Tensors {
			en.Tensors[ti] = d.tensor(d.i32(), d.i32())
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot: %w", err)
	}
	return s, nil
}
