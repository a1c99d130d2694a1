package wire

import (
	"math/bits"
	"sync"
)

// Codec buffer pools, mirroring the tensor arena (DESIGN.md §11): frame
// bodies, decoded float payloads and Message shells are recycled through
// size-classed sync.Pools so the steady-state exchange hot path encodes
// and decodes with zero allocations.
//
// Slices are pooled behind *[]byte / *[]float64 headers whose boxes are
// themselves recycled (a sync.Pool.Put of a bare slice value would box a
// fresh 24-byte header on every call, defeating the zero-alloc contract).
//
// Ownership rules:
//   - GetBuf/PutBuf hand out frame-body scratch; contents are unspecified.
//   - DecodePooled returns a message whose Data slices and Tensors backing
//     come from these pools; Release returns them. Release ONLY messages
//     obtained from DecodePooled (or a transport documented to use it),
//     and only once — the data must no longer be referenced anywhere.

// maxPoolClass caps pooled capacity at 2^26 bytes (64 MiB) per byte
// buffer and 2^26 floats per payload; larger one-off buffers go to the GC
// rather than pinning worst-case memory in the pools forever.
const maxPoolClass = 26

// poolClass is ceil(log2(n)): the smallest class whose capacity holds n.
func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

var (
	bufPools   [maxPoolClass + 1]sync.Pool
	bufHdrPool = sync.Pool{New: func() any { return new([]byte) }}

	floatPools   [maxPoolClass + 1]sync.Pool
	floatHdrPool = sync.Pool{New: func() any { return new([]float64) }}

	msgPool = sync.Pool{New: func() any { return new(Message) }}
)

// GetBuf returns a byte slice of length n with unspecified contents from
// the frame-body pool, allocating only on pool miss. Pair with PutBuf.
func GetBuf(n int) []byte {
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		h := v.(*[]byte)
		b := (*h)[:n]
		*h = nil
		bufHdrPool.Put(h)
		return b
	}
	return make([]byte, n, 1<<c)
}

// PutBuf recycles a buffer obtained from GetBuf. The caller must not
// retain any reference to it afterwards. Accepts any slice (buffers above
// the class cap are dropped for the GC).
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Floor log2: the class whose nominal capacity this buffer can serve.
	c := bits.Len(uint(cap(b))) - 1
	if c > maxPoolClass {
		return
	}
	h := bufHdrPool.Get().(*[]byte)
	*h = b[:cap(b)]
	bufPools[c].Put(h)
}

// getFloats returns a float slice of length n with unspecified contents.
func getFloats(n int) []float64 {
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	if v := floatPools[c].Get(); v != nil {
		h := v.(*[]float64)
		f := (*h)[:n]
		*h = nil
		floatHdrPool.Put(h)
		return f
	}
	return make([]float64, n, 1<<c)
}

// putFloats recycles a payload slice; nil and zero-capacity slices are
// no-ops.
func putFloats(f []float64) {
	if cap(f) == 0 {
		return
	}
	c := bits.Len(uint(cap(f))) - 1
	if c > maxPoolClass {
		return
	}
	h := floatHdrPool.Get().(*[]float64)
	*h = f[:cap(f)]
	floatPools[c].Put(h)
}

// Release returns a message obtained from DecodePooled to the codec
// pools: every tensor's Data, then the Message shell itself (its Tensors
// backing array travels with it). After Release the caller must not touch
// m or any tensor data it carried — the next DecodePooled may hand the
// memory to another goroutine. Releasing a message more than once, or one
// whose tensors are still referenced (e.g. wrapped by tensorOf without a
// copy), corrupts live data. nil is a no-op.
func Release(m *Message) {
	if m == nil {
		return
	}
	for i := range m.Tensors {
		putFloats(m.Tensors[i].Data)
		m.Tensors[i] = Matrix{}
	}
	tensors := m.Tensors[:0]
	*m = Message{Tensors: tensors}
	msgPool.Put(m)
}

// DecodePooled parses one frame body (without the 4-byte length prefix),
// drawing the Message shell and every tensor payload from the codec
// pools: a steady-state decode allocates nothing. The caller owns the result and must either
// Release it (after copying out whatever it keeps) or retain it forever —
// an unreleased message is ordinary garbage, never corrupt.
func DecodePooled(body []byte) (*Message, error) {
	m := msgPool.Get().(*Message)
	if err := decodeBody(m, body); err != nil {
		Release(m)
		return nil, err
	}
	return m, nil
}
