package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// This file holds the run-level checkpoint: everything a velamaster
// process needs to reconstruct an interrupted fine-tuning run
// bit-identically — not just the experts (ExpertSnapshot covers those)
// but the backbone LoRA weights and their AdamW moments, the loss
// trajectory, the completed-step count, the data-batcher
// cursor stack, the RNG seeds, the live placement assignment, the drift
// monitor's baseline/estimate/predicted-comm, and the replace
// controller's hysteresis and cooldown counters.
//
// Durability discipline (the part the expert snapshot never needed):
//
//   - Each checkpoint is one self-validating generation file
//     gen-%08d.vrun: magic, generation number, body length, body, and a
//     CRC32C (Castagnoli) trailer over everything before it. A torn or
//     bit-rotted file fails the trailer check and is skipped.
//   - Writes go through writeAtomic (tmp → write → fsync → rename →
//     fsync(dir)), so a crash at any point leaves either the previous
//     generation set or the previous set plus one complete new file —
//     never a half-written file under a live name.
//   - The directory listing is the only index: LoadLatest scans the
//     generation files in descending order and returns the first that
//     validates. Any other file (a stale .tmp, a leftover MANIFEST) is
//     ignored.
//   - Retention keeps the newest Keep generations and prunes the rest
//     after each successful write.
//
// Format (little-endian):
//
//	magic "VELARUN1"
//	uint64 generation
//	uint64 bodyLen, then body (see encoder.runBody), then
//	uint32 CRC32C over magic ‖ generation ‖ bodyLen ‖ body

const (
	runMagic = "VELARUN1"
	// DefaultRunKeep is the retention depth when RunStore.Keep is unset.
	DefaultRunKeep = 3
	runGenPrefix   = "gen-"
	runGenSuffix   = ".vrun"
)

// castagnoli is the CRC32C table (iSCSI polynomial, hardware-accelerated
// on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NamedTensor is one named dense matrix of the run state (a trainable
// backbone parameter, matched by name on restore).
type NamedTensor struct {
	Name string
	StateTensor
}

// RunState is the full resumable state of a fine-tuning run at one step
// boundary.
type RunState struct {
	// Generation is assigned by RunStore.Save; zero until then.
	Generation uint64
	// Step is the number of completed fine-tuning steps (== len(Losses)):
	// the resumed run drives steps [Step, total).
	Step int
	// Losses is the per-step loss trajectory so far; a resumed run
	// appends to it and the final series is bit-identical to an
	// uninterrupted run's.
	Losses []float64
	// Backbone holds the master-side trainable parameters (the LoRA
	// adapters; the frozen backbone is rebuilt deterministically), and
	// OptM/OptV/OptStep their AdamW moments and bias-correction clock.
	// OptM/OptV are aligned with Backbone; empty means no moments were
	// captured (the run's optimizer is not a bare AdamW).
	Backbone   []NamedTensor
	OptStep    int
	OptM, OptV []StateTensor
	// Experts is the moments-inclusive expert snapshot (VELAEXS2).
	Experts *ExpertSnapshot
	// Cursor is the data source's replayable position stack
	// (data.Batcher / data.SwitchBatcher Cursor()).
	Cursor []int64
	// Seeds records the run's RNG seeds for resume-time verification
	// (the deterministic prelude re-derives all RNG state from them).
	Seeds []int64
	// Assignment is the live expert→worker placement, Worker[layer][expert].
	Assignment [][]int
	// Baseline / Phat / PredictedComm are the drift monitor's anchor,
	// EWMA estimate, and predicted-comm gauge.
	Baseline      [][]float64
	Phat          [][]float64
	PredictedComm float64
	// HasReplace marks whether a replace controller was live;
	// ReplaceOver/ReplaceCooldown are its hysteresis and cooldown
	// counters.
	HasReplace                   bool
	ReplaceOver, ReplaceCooldown int
}

// IOFaults injects checkpoint-I/O failures for fault-coverage tests, in
// the spirit of transport.Faulty: each knob simulates one crash window
// of the write discipline. A nil *IOFaults (the production value)
// injects nothing. writeAtomic is the one place that consults it.
type IOFaults struct {
	// TornWriteGen truncates that generation's file mid-body (no CRC
	// trailer survives) while still publishing it under its final name —
	// the "crash between rename and the next write, disk lied about the
	// flush" case. LoadLatest must fall back to the previous generation.
	TornWriteGen uint64
	// SkipRenameGen leaves that generation's bytes at the temporary name
	// and never renames — the "crash before rename" case. Save still
	// reports success, so only the scan can notice the file is missing.
	SkipRenameGen uint64
}

// RunStore reads and writes run-level checkpoint generations in one
// directory. The zero value is unusable; set Dir. It holds no state of
// its own — the directory is the state — but is not safe for concurrent
// use: the AsyncWriter serializes all access.
type RunStore struct {
	// Dir is the checkpoint directory (created on first Save).
	Dir string
	// Keep is the retention depth; <= 0 selects DefaultRunKeep.
	Keep int
	// Faults, when non-nil, injects write-path failures (tests only).
	Faults *IOFaults
}

func runGenName(gen uint64) string {
	return fmt.Sprintf("%s%08d%s", runGenPrefix, gen, runGenSuffix)
}

// parseGenName extracts the generation number from a gen-%08d.vrun name.
func parseGenName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, runGenPrefix) || !strings.HasSuffix(name, runGenSuffix) {
		return 0, false
	}
	mid := name[len(runGenPrefix) : len(name)-len(runGenSuffix)]
	var gen uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		gen = gen*10 + uint64(c-'0')
		if gen > 1<<40 {
			return 0, false
		}
	}
	return gen, len(mid) > 0
}

// Generations lists the generation numbers present on disk, ascending.
// Torn files still count — validity is decided at load time.
func (s *RunStore) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseGenName(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// Save assigns the next generation number (one past the newest on disk),
// encodes the state, and writes it with the full durability discipline
// (writeAtomic, then retention pruning). It returns the generation
// written and its encoded size. A state that does not encode (a tensor
// whose shape disagrees with its payload) fails before any file is
// written, so the generation number is not consumed.
func (s *RunStore) Save(rs *RunState) (gen uint64, size int64, err error) {
	if s.Dir == "" {
		return 0, 0, fmt.Errorf("checkpoint: RunStore.Dir unset")
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return 0, 0, err
	}
	gens, err := s.Generations()
	if err != nil {
		return 0, 0, err
	}
	gen = 1
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	rs.Generation = gen

	full, err := encodeRun(rs)
	if err != nil {
		return 0, 0, err
	}
	if err := writeAtomic(filepath.Join(s.Dir, runGenName(gen)), full, s.Faults); err != nil {
		return 0, 0, err
	}
	s.prune(gen)
	return gen, int64(len(full)), nil
}

// prune removes generations older than the retention window (and any
// stale tmp files from aborted writes of already-superseded
// generations).
func (s *RunStore) prune(newest uint64) {
	keep := uint64(DefaultRunKeep)
	if s.Keep > 0 {
		keep = uint64(s.Keep)
	}
	if newest <= keep {
		return
	}
	cutoff := newest - keep
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".tmp")
		if gen, ok := parseGenName(name); ok && gen <= cutoff {
			_ = os.Remove(filepath.Join(s.Dir, e.Name()))
		}
	}
}

// LoadLatest returns the newest valid generation: the newest generation
// file that decodes and passes its CRC trailer — so a torn or corrupt
// newest generation falls back to the previous one.
func (s *RunStore) LoadLatest() (*RunState, error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		rs, err := s.loadGeneration(gens[i])
		if err == nil {
			return rs, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: no valid run checkpoint in %s", s.Dir)
}

// loadGeneration reads and validates one generation file.
func (s *RunStore) loadGeneration(gen uint64) (*RunState, error) {
	raw, err := os.ReadFile(filepath.Join(s.Dir, runGenName(gen)))
	if err != nil {
		return nil, err
	}
	rs, err := decodeRun(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: generation %d: %w", gen, err)
	}
	if rs.Generation != gen {
		return nil, fmt.Errorf("checkpoint: generation file %d claims generation %d", gen, rs.Generation)
	}
	return rs, nil
}

// encodeRun returns the complete generation file for rs: framing, body
// and CRC trailer appended in place into one buffer.
func encodeRun(rs *RunState) ([]byte, error) {
	return encode(func(e *encoder) {
		e.raw(runMagic)
		e.u64(rs.Generation)
		body := e.lenPrefix()
		e.runBody(rs)
		e.patchLen(body)
		e.u32(crc32.Checksum(e.buf, castagnoli))
	})
}

// decodeRun parses one generation file: framing, then the CRC over
// everything before the trailer, then the body.
func decodeRun(raw []byte) (*RunState, error) {
	d := &decoder{raw: raw}
	d.magic(runMagic)
	rs := &RunState{Generation: d.u64()}
	if bodyLen := d.u64(); d.err == nil && (d.rem() < 4 || bodyLen != uint64(d.rem()-4)) {
		d.fail("length mismatch (header says %d body bytes, file has %d)", bodyLen, d.rem()-4)
	}
	if d.err != nil {
		return nil, d.err
	}
	d.raw = raw[:len(raw)-4] // the body ends where the trailer begins
	want := binary.LittleEndian.Uint32(raw[len(d.raw):])
	if got := crc32.Checksum(d.raw, castagnoli); got != want {
		return nil, fmt.Errorf("CRC32C mismatch (got %08x, want %08x)", got, want)
	}
	d.runBody(rs)
	if err := d.finish(); err != nil {
		return nil, err
	}
	if len(rs.OptM) != len(rs.OptV) || (len(rs.OptM) != 0 && len(rs.OptM) != len(rs.Backbone)) {
		return nil, fmt.Errorf("optimizer moments misaligned (%d m, %d v, %d params)",
			len(rs.OptM), len(rs.OptV), len(rs.Backbone))
	}
	return rs, nil
}

// --- body encoding ---

func (e *encoder) str(s string) {
	e.i64(len(s))
	e.raw(s)
}
func (e *encoder) f64s(vs []float64) {
	e.i64(len(vs))
	e.floats(vs)
}
func (e *encoder) i64s(vs []int64) {
	e.i64(len(vs))
	for _, v := range vs {
		e.u64(uint64(v))
	}
}
func (e *encoder) tensor(t StateTensor) {
	e.i64(t.Rows)
	e.i64(t.Cols)
	e.payload(t)
}
func (e *encoder) tensors(ts []StateTensor) {
	e.i64(len(ts))
	for _, t := range ts {
		e.tensor(t)
	}
}
func (e *encoder) matrix(m [][]float64) {
	e.i64(len(m))
	for _, row := range m {
		e.f64s(row)
	}
}
func (e *encoder) grid(g [][]int) {
	e.i64(len(g))
	for _, row := range g {
		e.i64(len(row))
		for _, v := range row {
			e.i64(v)
		}
	}
}
func (e *encoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// runBody appends the VELARUN1 body for rs.
func (e *encoder) runBody(rs *RunState) {
	e.i64(rs.Step)
	e.i64(0) // the retired step-ordinal slot: written as 0, skipped on read
	e.f64s(rs.Losses)
	e.i64(len(rs.Backbone))
	for _, nt := range rs.Backbone {
		e.str(nt.Name)
		e.tensor(nt.StateTensor)
	}
	e.i64(rs.OptStep)
	e.tensors(rs.OptM)
	e.tensors(rs.OptV)
	// The experts ride as a length-prefixed VELAEXS2 section; zero length
	// means the run had none.
	experts := e.lenPrefix()
	if rs.Experts != nil {
		e.snapshot(rs.Experts)
	}
	e.patchLen(experts)
	e.i64s(rs.Cursor)
	e.i64s(rs.Seeds)
	e.grid(rs.Assignment)
	e.matrix(rs.Baseline)
	e.matrix(rs.Phat)
	e.f64(rs.PredictedComm)
	e.flag(rs.HasReplace)
	e.i64(rs.ReplaceOver)
	e.i64(rs.ReplaceCooldown)
}

func (d *decoder) str() string {
	return string(d.take(d.i64()))
}
func (d *decoder) f64s() []float64 {
	out := make([]float64, d.count(d.i64(), 8, "float"))
	d.floatsInto(out)
	return out
}
func (d *decoder) i64s() []int64 {
	out := make([]int64, d.count(d.i64(), 8, "int"))
	for i := range out {
		out[i] = int64(d.u64())
	}
	return out
}
func (d *decoder) tensors() []StateTensor {
	out := make([]StateTensor, d.count(d.i64(), 16, "tensor"))
	for i := range out {
		out[i] = d.tensor(d.i64(), d.i64())
	}
	return out
}
func (d *decoder) matrix() [][]float64 {
	n := d.count(d.i64(), 8, "matrix row")
	if n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.f64s()
	}
	return out
}
func (d *decoder) grid() [][]int {
	n := d.count(d.i64(), 8, "grid row")
	if n == 0 {
		return nil
	}
	out := make([][]int, n)
	for i := range out {
		row := make([]int, d.count(d.i64(), 8, "grid column"))
		for j := range row {
			row[j] = d.i64()
		}
		out[i] = row
	}
	return out
}
func (d *decoder) flag() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// runBody reads the VELARUN1 body into rs, mirroring encoder.runBody.
func (d *decoder) runBody(rs *RunState) {
	rs.Step = d.i64()
	d.i64() // the retired step-ordinal slot
	rs.Losses = d.f64s()
	nb := d.count(d.i64(), 24, "backbone tensor")
	for i := 0; i < nb && d.err == nil; i++ {
		name := d.str()
		rs.Backbone = append(rs.Backbone, NamedTensor{Name: name, StateTensor: d.tensor(d.i64(), d.i64())})
	}
	rs.OptStep = d.i64()
	rs.OptM = d.tensors()
	rs.OptV = d.tensors()
	if sec := d.take(d.i64()); len(sec) > 0 {
		snap, err := decodeExpertSnapshot(sec)
		if err != nil {
			d.fail("experts section: %w", err)
		}
		rs.Experts = snap
	}
	rs.Cursor = d.i64s()
	rs.Seeds = d.i64s()
	rs.Assignment = d.grid()
	rs.Baseline = d.matrix()
	rs.Phat = d.matrix()
	rs.PredictedComm = d.f64()
	rs.HasReplace = d.flag()
	rs.ReplaceOver = d.i64()
	rs.ReplaceCooldown = d.i64()
}
