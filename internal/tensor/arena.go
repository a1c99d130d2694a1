// Scratch-buffer arena: a sync.Pool-backed free list of whole *Tensor
// objects bucketed by power-of-two capacity, so per-step temporaries in
// hot loops cost zero allocations at steady state.
//
// Contract:
//   - Get returns a tensor of the requested shape with every element
//     zeroed. GetDirty skips the zeroing and may return arbitrary stale
//     values; callers must overwrite every element (all *Into kernels do).
//   - Put recycles a tensor. The caller must not retain any reference to
//     it or its Data afterwards — the next Get may hand it to another
//     goroutine.
//   - Never Put a tensor that shares storage with a live view (Row, or
//     New over its Data); the view would alias a recycled buffer.
//
// Pooling whole *Tensor objects (not raw slices) makes a pool hit truly
// allocation-free: header, shape slice, and data array are all reused.
package tensor

import (
	"math/bits"
	"sync"
)

// maxArenaClass caps pooled capacity at 2^24 elements (128 MiB of
// float64); anything larger is handed to the GC rather than pinned in the
// pool forever.
const maxArenaClass = 24

var arenaPools [maxArenaClass + 1]sync.Pool

// arenaClass is ceil(log2(n)): the smallest class whose capacity holds n.
func arenaClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a zeroed tensor of the given shape from the arena,
// allocating only on pool miss. Pair with Put.
func Get(shape ...int) *Tensor {
	t := GetDirty(shape...)
	t.Zero()
	return t
}

// GetDirty returns a tensor of the given shape whose contents are
// unspecified — possibly stale values from a previous user. Only for
// callers that overwrite every element. Pair with Put.
func GetDirty(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension")
		}
		n *= d
	}
	c := arenaClass(n)
	if c > maxArenaClass {
		return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
	}
	if v := arenaPools[c].Get(); v != nil {
		t := v.(*Tensor)
		t.Data = t.Data[:n]
		t.shape = append(t.shape[:0], shape...)
		return t
	}
	return &Tensor{Data: make([]float64, n, 1<<c), shape: append([]int(nil), shape...)}
}

// Put returns a tensor obtained from Get/GetDirty to the arena. Accepts
// any tensor (nil is a no-op), but see the package contract: no live
// views may share its storage.
func Put(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	// Floor log2: the class whose nominal capacity this buffer can fully
	// serve. Buffers above the cap are dropped for the GC to take.
	c := bits.Len(uint(cap(t.Data))) - 1
	if c > maxArenaClass {
		return
	}
	t.Data = t.Data[:cap(t.Data)]
	arenaPools[c].Put(t)
}

// Ensure returns *p reshaped to the given shape, its contents dirty:
// stale values of any earlier shape. Layers use it for step-persistent
// scratch whose size follows the routed batch: when the slot's backing
// array holds the new shape it is reshaped in place, so only growth
// allocates — a fresh zeroed tensor, which replaces *p. Every caller
// overwrites the result or calls Zero() before accumulating, and must
// not keep an earlier result across the call: that tensor is the same
// one, reshaped.
func Ensure(p **Tensor, shape ...int) *Tensor {
	// Sized here, not by numel: its panic message would move shape to the
	// heap on every call. A negative dimension fails the test below and
	// panics in Zeros.
	n := 1
	for _, d := range shape {
		n *= d
		if d < 0 {
			n = -1
			break
		}
	}
	if t := *p; t != nil && len(t.shape) == len(shape) && 0 <= n && n <= cap(t.Data) {
		t.Data = t.Data[:n]
		copy(t.shape, shape)
		return t
	}
	// Copy the shape instead of forwarding the variadic: Zeros retains its
	// argument, and forwarding would force shape to the heap on EVERY call
	// — turning the reuse path (the 99% case) into one allocation per step.
	t := Zeros(append([]int(nil), shape...)...)
	*p = t
	return t
}
