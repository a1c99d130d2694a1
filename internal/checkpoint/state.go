package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// This file holds the runtime expert-state snapshot format — the
// recovery substrate of the fault-tolerant broker. Unlike the
// pre-training checkpoint (Save/Load), an ExpertSnapshot captures the
// *fine-tuning-time* state of every expert, LoRA adapters included, in
// exactly the broker's MsgAssign tensor layout: a metadata row followed
// by each parameter in canonical order. That makes restore a pure
// re-assign — the supervisor replays the snapshot entry to an expert's
// new host after a failover, with no architecture reconstruction logic
// of its own.
//
// The entry tensor list also carries the worker-local AdamW optimizer
// slice: the broker's metadata row is 6 columns ([D, Hidden, LoRARank,
// LoRAAlpha, numMomentPairs, optStep]) and one (m, v) moment-tensor pair
// per trainable parameter rides after the parameters. Failover and
// run-level resume therefore restore the optimizer trajectory exactly
// instead of restarting moments on the new host. The pre-moments V1
// format is no longer read: nothing writes it.
//
// Format (little-endian):
//
//	magic "VELAEXS2"
//	int32 step (the fine-tuning step the snapshot was taken after)
//	int32 numEntries, then per entry:
//	  int32 layer, int32 expert, int32 numTensors, per tensor:
//	    int32 rows, int32 cols, float64 × rows·cols

const stateMagic = "VELAEXS2"

// maxSnapshotTensors bounds the per-entry tensor count a loader will
// accept, guarding the allocation against a corrupted header.
const maxSnapshotTensors = 1 << 16

// StateTensor is one dense matrix of an expert snapshot entry.
type StateTensor struct {
	Rows, Cols int
	Data       []float64
}

// ExpertEntry is the captured state of one expert: its grid coordinates
// and its tensors in MsgAssign layout (metadata row first, then every
// parameter in canonical order).
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

// SaveExpertSnapshot writes the snapshot to w.
func SaveExpertSnapshot(w io.Writer, s *ExpertSnapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(stateMagic); err != nil {
		return err
	}
	for _, v := range []int32{int32(s.Step), int32(len(s.Entries))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, e := range s.Entries {
		hdr := []int32{int32(e.Layer), int32(e.Expert), int32(len(e.Tensors))}
		for _, v := range hdr {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		for ti, t := range e.Tensors {
			if t.Rows*t.Cols != len(t.Data) {
				return fmt.Errorf("checkpoint: snapshot L%d/E%d tensor %d is %dx%d with %d values",
					e.Layer, e.Expert, ti, t.Rows, t.Cols, len(t.Data))
			}
			if err := binary.Write(bw, binary.LittleEndian, int32(t.Rows)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, int32(t.Cols)); err != nil {
				return err
			}
			for _, v := range t.Data {
				if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadExpertSnapshot reads a snapshot from r.
func LoadExpertSnapshot(r io.Reader) (*ExpertSnapshot, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("checkpoint: reading snapshot magic: %w", err)
	}
	if string(got) != stateMagic {
		return nil, fmt.Errorf("checkpoint: bad snapshot magic %q", got)
	}
	readI32 := func() (int, error) {
		var v int32
		err := binary.Read(br, binary.LittleEndian, &v)
		return int(v), err
	}
	step, err := readI32()
	if err != nil {
		return nil, err
	}
	count, err := readI32()
	if err != nil {
		return nil, err
	}
	if count < 0 || count > maxSnapshotTensors {
		return nil, fmt.Errorf("checkpoint: implausible snapshot entry count %d", count)
	}
	s := &ExpertSnapshot{Step: step, Entries: make([]ExpertEntry, 0, count)}
	for i := 0; i < count; i++ {
		layer, err := readI32()
		if err != nil {
			return nil, err
		}
		expert, err := readI32()
		if err != nil {
			return nil, err
		}
		nT, err := readI32()
		if err != nil {
			return nil, err
		}
		if nT < 0 || nT > maxSnapshotTensors {
			return nil, fmt.Errorf("checkpoint: snapshot entry %d has implausible tensor count %d", i, nT)
		}
		e := ExpertEntry{Layer: layer, Expert: expert, Tensors: make([]StateTensor, 0, nT)}
		for ti := 0; ti < nT; ti++ {
			rows, err := readI32()
			if err != nil {
				return nil, err
			}
			cols, err := readI32()
			if err != nil {
				return nil, err
			}
			// Bound each dimension before multiplying so a corrupted
			// header cannot overflow the product or trigger a huge
			// allocation the stream can never satisfy.
			const maxDim = 1 << 27
			if rows < 0 || cols < 0 || rows > maxDim || cols > maxDim {
				return nil, fmt.Errorf("checkpoint: snapshot tensor %d of entry %d has implausible shape %dx%d",
					ti, i, rows, cols)
			}
			data := make([]float64, rows*cols)
			for j := range data {
				var bits uint64
				if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
					return nil, err
				}
				data[j] = math.Float64frombits(bits)
			}
			e.Tensors = append(e.Tensors, StateTensor{Rows: rows, Cols: cols, Data: data})
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

// SaveExpertSnapshotFile writes the snapshot to path atomically via a
// temp file, the same discipline SaveFile uses: a crash mid-write never
// leaves a torn snapshot where the recovery path would read it.
func SaveExpertSnapshotFile(path string, s *ExpertSnapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveExpertSnapshot(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadExpertSnapshotFile reads a snapshot from path.
func LoadExpertSnapshotFile(path string) (*ExpertSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadExpertSnapshot(f)
}
