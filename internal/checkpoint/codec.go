package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// This file is the one codec and the one file writer all three persisted
// formats are built from: VELACKP1 and VELAEXS2 use the int32 fields,
// VELARUN1 the 64-bit ones, and every float64 payload moves through
// wire's block loop.

// encoder appends little-endian fields to one buffer. A dry encoder
// does the same but skips the float64 payloads, only counting them: what
// is left is a few header bytes per tensor, cheap to build and throw away.
type encoder struct {
	latch
	buf     []byte
	dry     bool
	skipped int // payload bytes a dry run did not append
}

// latch holds the first failure of an encode or decode; later ones are
// consequences of it and are dropped.
type latch struct{ err error }

func (l *latch) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

// encode runs write twice over the same input: dry, to validate every
// tensor and measure the output before a byte of it exists, then for real
// into a buffer of exactly that size — so a malformed input is an error
// with nothing written, and a well-formed one costs one allocation
// however many values it holds.
func encode(write func(*encoder)) ([]byte, error) {
	dry := encoder{dry: true}
	write(&dry)
	if dry.err != nil {
		return nil, fmt.Errorf("checkpoint: %w", dry.err)
	}
	e := encoder{buf: make([]byte, 0, len(dry.buf)+dry.skipped)}
	write(&e)
	return e.buf, nil
}

func (e *encoder) raw(s string)  { e.buf = append(e.buf, s...) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int)     { e.u32(uint32(int32(v))) }
func (e *encoder) i64(v int)     { e.u64(uint64(int64(v))) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// floats appends a float64 block through wire's loop.
func (e *encoder) floats(vs []float64) {
	if e.dry {
		e.skipped += 8 * len(vs)
		return
	}
	e.buf = wire.AppendFloat64s(e.buf, vs)
}

// payload appends t's values, failing the encode when its declared shape
// (which the caller wrote, in its format's header width) disagrees.
func (e *encoder) payload(t StateTensor) {
	if t.Rows < 0 || t.Cols < 0 || t.Rows*t.Cols != len(t.Data) {
		e.fail("tensor is %dx%d with %d values", t.Rows, t.Cols, len(t.Data))
	}
	e.floats(t.Data)
}

// lenPrefix reserves a uint64 length field; patchLen fills it with the
// number of bytes appended since, so a section's recorded length is
// whatever was actually written.
func (e *encoder) lenPrefix() int {
	e.u64(0)
	return len(e.buf)
}
func (e *encoder) patchLen(at int) {
	if !e.dry {
		binary.LittleEndian.PutUint64(e.buf[at-8:], uint64(len(e.buf)-at))
	}
}

// decoder reads little-endian fields from a byte slice. The first
// failure latches in err and every later read returns zero, so format
// code reads straight through and checks once, in finish.
//
// Every count is bounded by the bytes that remain (count, tensor) before
// anything is allocated for it, so a decode allocates no more than a
// small multiple of its input and there is no "implausible" constant to
// tune: a 22 MB expert section and a 1<<27-squared shape are judged by
// the same rule, and only the second fails it.
type decoder struct {
	latch
	raw []byte
	off int
}

func (d *decoder) rem() int { return len(d.raw) - d.off }

// take returns the next n bytes, or fails when n is negative or more
// than remain — so a decoded byte length needs no check of its own.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.rem() {
		d.fail("truncated at offset %d (need %d bytes, %d remain)", d.off, n, d.rem())
		return nil
	}
	b := d.raw[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (d *decoder) i32() int     { return int(int32(d.u32())) }
func (d *decoder) i64() int     { return int(int64(d.u64())) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) magic(want string) {
	if got := d.take(len(want)); got != nil && string(got) != want {
		d.fail("bad magic %q, want %q", got, want)
	}
}

// count validates a decoded element count n whose elements occupy at
// least each bytes apiece: non-negative, and it fits in what remains. It
// returns 0 once the decoder has failed, so a make or loop sized by it
// needs no separate error check.
func (d *decoder) count(n, each int, what string) int {
	if d.err == nil && (n < 0 || n > d.rem()/each) {
		d.fail("%s count %d overruns the %d bytes that remain", what, n, d.rem())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// floatsInto fills dst from the next 8·len(dst) bytes.
func (d *decoder) floatsInto(dst []float64) {
	if src := d.take(8 * len(dst)); d.err == nil {
		wire.DecodeFloat64s(src, dst)
	}
}

// tensor reads the rows×cols payload of a tensor whose header the caller
// just decoded. Each dimension is bounded by the remaining bytes before
// the product is formed, so it cannot overflow.
func (d *decoder) tensor(rows, cols int) StateTensor {
	maxVals := d.rem() / 8
	if d.err == nil && (rows < 0 || cols < 0 || (rows > 0 && cols > 0 && (cols > maxVals || rows > maxVals/cols))) {
		d.fail("tensor shape %dx%d overruns the %d bytes that remain", rows, cols, d.rem())
	}
	if d.err != nil {
		return StateTensor{}
	}
	t := StateTensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	d.floatsInto(t.Data)
	return t
}

// finish reports the latched error, or input left over after the last
// field (the length lied).
func (d *decoder) finish() error {
	if d.err == nil && d.rem() != 0 {
		d.fail("%d trailing bytes", d.rem())
	}
	return d.err
}

// writeAtomic publishes data at path: tmp → write → fsync → rename →
// fsync(dir). A crash at any point leaves the old file or the complete
// new one under path, never a torn mix, and once it returns the new file
// survives power loss. Every file the package writes goes through here —
// run generations and the pre-trained model. faults (nil in production)
// injects this sequence's crash windows, keyed by the generation being
// written.
func writeAtomic(path string, data []byte, faults *IOFaults) error {
	skipRename := false
	if faults != nil {
		if gen, ok := parseGenName(filepath.Base(path)); ok {
			if faults.TornWriteGen == gen {
				data = data[:len(data)*2/3]
			}
			skipRename = faults.SkipRenameGen == gen
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if skipRename && err == nil {
		return nil
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
