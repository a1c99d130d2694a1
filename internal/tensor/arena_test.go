package tensor

import (
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestArenaGetReturnsZeroed pins the Get half of the arena contract: a
// recycled buffer comes back with every element zeroed even when the
// previous user left garbage in it, and a same-class request actually
// reuses the backing array rather than allocating.
func TestArenaGetReturnsZeroed(t *testing.T) {
	d := GetDirty(16, 16)
	for i := range d.Data {
		d.Data[i] = 1e9
	}
	p0 := &d.Data[0]
	Put(d)

	g := Get(16, 16)
	for i, v := range g.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("Get returned dirty element %v at %d", v, i)
		}
	}
	if &g.Data[0] != p0 && !raceEnabled {
		t.Error("Get after Put did not reuse the pooled backing array")
	}
	Put(g)
}

// TestArenaGetDirtyContract pins the GetDirty half: stale contents are
// allowed (the pooled buffer's old values survive), so callers must
// overwrite every element.
func TestArenaGetDirtyContract(t *testing.T) {
	d := GetDirty(8, 8)
	for i := range d.Data {
		d.Data[i] = 7
	}
	p0 := &d.Data[0]
	Put(d)

	g := GetDirty(8, 8)
	if &g.Data[0] != p0 {
		t.Skip("pool did not return the same buffer; staleness unobservable")
	}
	if !testutil.BitEqual(g.Data[0], 7) {
		t.Errorf("GetDirty zeroed a recycled buffer; contract says it may stay stale")
	}
	Put(g)
}

// TestArenaShapeAndClass covers shape plumbing across capacity classes:
// a smaller same-class request reslices the pooled buffer, and the shape
// metadata always matches the request.
func TestArenaShapeAndClass(t *testing.T) {
	d := GetDirty(100) // class 7, cap 128
	p0 := &d.Data[0]
	Put(d)

	g := GetDirty(5, 13) // 65 elements, same class 7
	if g.Rows() != 5 || g.Cols() != 13 || len(g.Data) != 65 {
		t.Fatalf("GetDirty(5,13) shape = %dx%d len %d", g.Rows(), g.Cols(), len(g.Data))
	}
	if &g.Data[0] != p0 && !raceEnabled {
		t.Error("same-class smaller request did not reuse the pooled buffer")
	}
	Put(g)

	if got, want := arenaClass(1), 0; got != want {
		t.Errorf("arenaClass(1) = %d, want %d", got, want)
	}
	if got, want := arenaClass(64), 6; got != want {
		t.Errorf("arenaClass(64) = %d, want %d", got, want)
	}
	if got, want := arenaClass(65), 7; got != want {
		t.Errorf("arenaClass(65) = %d, want %d", got, want)
	}
}

// TestArenaPutEdgeCases pins the no-op paths: nil and empty tensors are
// silently ignored, and non-positive shapes panic in GetDirty.
func TestArenaPutEdgeCases(t *testing.T) {
	Put(nil)
	Put(&Tensor{})

	defer func() {
		if recover() == nil {
			t.Fatal("GetDirty with a non-positive dimension did not panic")
		}
	}()
	GetDirty(3, 0)
}

// TestEnsureSemantics pins the step-persistent scratch helper: a shape
// the slot's backing array holds — the same one, or any smaller or equal
// element count — comes back as the same tensor, reshaped in place with
// its contents left dirty and without allocating; only growth replaces
// the slot, with a fresh zeroed tensor.
func TestEnsureSemantics(t *testing.T) {
	var p *Tensor
	a := Ensure(&p, 4, 6)
	if a != p || a.Rows() != 4 || a.Cols() != 6 {
		t.Fatal("Ensure on nil slot did not install a fresh tensor")
	}
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	p0 := &a.Data[0]

	b := Ensure(&p, 4, 6)
	if b != a || !testutil.BitEqual(b.Data[0], 1) {
		t.Error("Ensure with matching shape replaced or cleared the buffer; reuse must keep contents")
	}

	c := Ensure(&p, 6, 4)
	if c != a || c != p || &c.Data[0] != p0 {
		t.Error("Ensure with a new shape of equal size did not reuse the buffer in place")
	}
	if c.Rows() != 6 || c.Cols() != 4 || len(c.Data) != 24 {
		t.Fatalf("reshaped tensor is %v with %d elements, want [6 4] and 24", c.Shape(), len(c.Data))
	}
	if !testutil.BitEqual(c.Data[23], 24) {
		t.Error("Ensure zeroed a reused buffer; its contents are dirty by contract")
	}

	d := Ensure(&p, 3, 5)
	if d != a || &d.Data[0] != p0 || d.Rows() != 3 || d.Cols() != 5 || len(d.Data) != 15 {
		t.Fatalf("shrinking Ensure gave %v (%d elements, same=%v), want the slot's tensor as [3 5]", d.Shape(), len(d.Data), d == a)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		Ensure(&p, 2, 7)
		Ensure(&p, 4, 6)
	}); allocs != 0 {
		t.Errorf("Ensure within capacity allocates %.1f times, want 0", allocs)
	}
	if e := Ensure(&p, 4, 6); len(e.Data) != 24 || &e.Data[0] != p0 {
		t.Error("Ensure did not grow back into the capacity it kept")
	}

	g := Ensure(&p, 5, 6)
	if g == a || g != p {
		t.Error("Ensure past the slot's capacity did not install a replacement")
	}
	for i, v := range g.Data {
		if !testutil.BitEqual(v, 0) {
			t.Fatalf("Ensure growth not zeroed at %d: %v", i, v)
		}
	}
}

// TestArenaSteadyStateAllocFree is the leak/bounded-growth proof: once
// warm, a Get+Put round trip performs zero heap allocations, so pooled
// hot loops cannot grow the heap step over step.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at random; counts are meaningless")
	}
	Put(GetDirty(32, 32)) // warm the class
	allocs := testing.AllocsPerRun(100, func() {
		s := Get(32, 32)
		Put(s)
	})
	if allocs > 0 {
		t.Errorf("warm Get+Put round trip allocates %.1f times, want 0", allocs)
	}
}

// TestArenaConcurrent hammers Get/Put from many goroutines (run under
// -race in CI): the arena must hand each buffer to exactly one owner.
func TestArenaConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := Get(17, 9)
				for j := range s.Data {
					s.Data[j] = seed
				}
				for j := range s.Data {
					if !testutil.BitEqual(s.Data[j], seed) {
						t.Errorf("buffer shared between goroutines: got %v want %v", s.Data[j], seed)
						return
					}
				}
				Put(s)
			}
		}(float64(g + 1))
	}
	wg.Wait()
}
