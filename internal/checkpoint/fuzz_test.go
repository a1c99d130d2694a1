package checkpoint

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"testing"
)

// The decoders' contract on arbitrary input: an error, never a panic,
// and never an allocation the input's own length does not justify — every
// count is bounded by the bytes that remain before anything is made for
// it. On success the result must survive its own encoding.

// decodeBounded runs decode and fails the test if it allocated more than
// a small multiple of the input (slice headers cost up to ~3.3× the
// bytes that declare them; 16× plus slack leaves room for the fuzz
// worker's own background allocation while still catching a header that
// conjures megabytes from a few bytes).
func decodeBounded(t *testing.T, raw []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(raw)+1<<16); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
	}
}

// runHdrLen is the VELARUN1 framing before the body: magic, generation,
// bodyLen.
const runHdrLen = len(runMagic) + 16

// frameRun wraps body in valid VELARUN1 framing, so mutated bodies get
// past the CRC and reach the body decoder.
func frameRun(body []byte) []byte {
	e := encoder{}
	e.raw(runMagic)
	e.u64(1)
	e.u64(uint64(len(body)))
	e.buf = append(e.buf, body...)
	e.u32(crc32.Checksum(e.buf, castagnoli))
	return e.buf
}

// hostileRunBodies are run bodies whose headers claim more than the
// input holds: a 1<<27-squared backbone tensor (the product overflows
// int), a negative loss count, and an experts length past the end.
func hostileRunBodies() [][]byte {
	prefix := func() *encoder {
		e := &encoder{}
		e.i64(1) // step
		e.i64(0) // the retired step-ordinal slot
		return e
	}
	shape := prefix()
	shape.i64(0) // no losses
	shape.i64(1) // one backbone tensor
	shape.str("w")
	shape.i64(1 << 27)
	shape.i64(1 << 27)
	negative := prefix()
	negative.i64(-1)
	experts := prefix()
	for i := 0; i < 5; i++ { // no losses, backbone, opt step 0, m, v
		experts.i64(0)
	}
	experts.i64(1 << 40)
	return [][]byte{shape.buf, negative.buf, experts.buf}
}

func FuzzDecodeRun(f *testing.F) {
	valid, err := encodeRun(sampleRunState(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[runHdrLen : len(valid)-4]) // a bare body: framed by the target
	for _, n := range []int{0, 7, runHdrLen, runHdrLen + 40, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	lying := bytes.Clone(valid)
	lying[len(runMagic)+8]++ // body length off by one
	f.Add(lying)
	for _, body := range hostileRunBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// As given (exercises the framing checks), then as the body of a
		// correctly framed generation (exercises the body decoder).
		for _, in := range [][]byte{raw, frameRun(raw)} {
			var rs *RunState
			decodeBounded(t, in, func() { rs, _ = decodeRun(in) })
			if rs == nil {
				continue
			}
			// Fixed point, compared as canonical bytes rather than with
			// reflect.DeepEqual: payloads may hold NaNs, and the flag byte
			// accepts any non-zero value.
			once, err := encodeRun(rs)
			if err != nil {
				t.Fatalf("decoded state does not re-encode: %v", err)
			}
			again, err := decodeRun(once)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			if twice, err := encodeRun(again); err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("encode∘decode is not a fixed point (err %v)", err)
			}
		}
	})
}

func FuzzDecodeExpertSnapshot(f *testing.F) {
	valid, err := encodeExpertSnapshot(fixtureSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, n := range []int{0, 4, len(stateMagic), len(stateMagic) + 6, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(snapshotHeader(1, -1))
	f.Add(snapshotHeader(1, 1<<30))
	f.Add(snapshotHeader(1, 1, 0, 0, -1))
	f.Add(snapshotHeader(1, 1, 0, 0, 1, 1<<27, 1<<27))
	f.Add(snapshotHeader(1, 1, 0, 0, 1, 1<<27, 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s *ExpertSnapshot
		decodeBounded(t, raw, func() { s, _ = decodeExpertSnapshot(raw) })
		if s == nil {
			return
		}
		once, err := encodeExpertSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		// VELAEXS2 has no don't-care bits: a successful decode consumed
		// every byte, so the encoding must reproduce the input exactly.
		if !bytes.Equal(once, raw) {
			t.Fatal("re-encoded snapshot differs from the input it was decoded from")
		}
	})
}
