package lint

import (
	"testing"
)

// callgraphSrc exercises both propagated summaries: lock discipline
// through the fooLocked-helper pattern, and deadline-bounded transport
// subtrees.
const callgraphSrc = `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) locked() { s.n++ }

func (s *S) Outer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locked()
}

func (s *S) Naked() { s.locked() }

type conn struct{}

func (c *conn) Send(v int) error      { return nil }
func (c *conn) Recv() (int, error)    { return 0, nil }
func (c *conn) SetRecvDeadline() error { return nil }

func wait(c *conn) int {
	v, _ := c.Recv()
	return v
}
func top(c *conn) int { return wait(c) }
func bounded(c *conn) int {
	_ = c.SetRecvDeadline()
	v, _ := c.Recv()
	return v
}
func spawnsWait(c *conn) {
	go func() {
		wait(c)
	}()
}
`

// buildTestProgram loads callgraphSrc as a one-package module and
// returns its Program plus a by-name lookup.
func buildTestProgram(t *testing.T) (*Program, func(string) *FuncInfo) {
	t.Helper()
	dir := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"p/p.go": callgraphSrc,
	})
	pkgs, err := Load(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Fatalf("callgraph source does not typecheck: %v", terr)
		}
	}
	prog := buildProgram(pkgs)
	byName := func(name string) *FuncInfo {
		for _, fi := range prog.functions() {
			if fi.Name == name {
				return fi
			}
		}
		t.Fatalf("function %q not in program", name)
		return nil
	}
	return prog, byName
}

func TestCallGraphLockDiscipline(t *testing.T) {
	prog, fn := buildTestProgram(t)
	// locked is called from Outer (under the lock) AND Naked (without):
	// mixed call sites mean it is NOT always under lock.
	if prog.alwaysCalledUnderLock(fn("locked")) {
		t.Error("AlwaysCalledUnderLock(locked) = true despite the lock-free Naked call site")
	}
	// Outer has no in-module callers at all.
	if prog.alwaysCalledUnderLock(fn("Outer")) {
		t.Error("AlwaysCalledUnderLock(Outer) = true with zero callers")
	}
}

func TestCallGraphUnboundedTransport(t *testing.T) {
	prog, fn := buildTestProgram(t)

	sites := prog.unboundedTransport(fn("top"))
	if len(sites) != 1 {
		t.Fatalf("UnboundedTransport(top) has %d sites, want 1", len(sites))
	}
	for _, s := range sites {
		if s.Op.Name != "Recv" {
			t.Errorf("site op = %s, want Recv", s.Op.Name)
		}
		if want := "top → wait"; s.Path != want {
			t.Errorf("site path = %q, want %q", s.Path, want)
		}
	}

	if sites := prog.unboundedTransport(fn("bounded")); len(sites) != 0 {
		t.Errorf("UnboundedTransport(bounded) = %d sites, want 0 (SetRecvDeadline bounds the frame)", len(sites))
	}
	if sites := prog.unboundedTransport(fn("spawnsWait")); len(sites) != 0 {
		t.Errorf("UnboundedTransport(spawnsWait) = %d sites, want 0 (the wait runs on another goroutine)", len(sites))
	}
}
