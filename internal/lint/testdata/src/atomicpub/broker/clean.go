package broker

import (
	"sync"
	"sync/atomic"
)

// published follows the atomic discipline at every access.
type published struct {
	n int64
}

func (p *published) bump()       { atomic.AddInt64(&p.n, 1) }
func (p *published) read() int64 { return atomic.LoadInt64(&p.n) }

// guardedTable locks around every access; putLocked is only ever called
// with the lock held, which the call-graph layer resolves.
type guardedTable struct {
	mu   sync.Mutex
	rows map[int]int
}

func (g *guardedTable) put(k, v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.putLocked(k, v)
}

func (g *guardedTable) putLocked(k, v int) { g.rows[k] = v }

func (g *guardedTable) get(k int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rows[k]
}

// typedAtomic fields carry their own discipline and are exempt.
type typedAtomic struct {
	flag atomic.Bool
}

func (t *typedAtomic) set()       { t.flag.Store(true) }
func (t *typedAtomic) peek() bool { return t.flag.Load() }

// builder writes state under its own lock after building it lock-free —
// the single-writer build-then-publish idiom is not a race.
type builder struct {
	mu    sync.Mutex
	state map[int]int
}

func (b *builder) rebuild() {
	next := make(map[int]int)
	b.mu.Lock()
	b.state = next
	b.mu.Unlock()
}

// newBuilder writes fields of a value it just built: nothing else can
// see it yet, so constructor writes are exempt even though rebuild
// writes state under the lock.
func newBuilder(size int) *builder {
	b := &builder{}
	b.state = make(map[int]int, size)
	return b
}

// verdict is a lock-less value struct: its fields happen to be written
// while the table's lock is held, but the verdict itself carries no
// per-instance discipline, so lock-free reads of a local copy are fine.
type verdict struct {
	drop bool
}

func (t *table2) judge() verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := verdict{}
	if len(t.rows) > 0 {
		v.drop = true
	}
	return v
}

type table2 struct {
	mu   sync.Mutex
	rows map[int]int
}

func (t *table2) apply() bool {
	v := t.judge()
	return v.drop
}

// asmCounter's atomic bump is implemented in assembly: the declaration has
// no body to walk, and the call to it from a locked method is clean.
type asmCounter struct {
	mu sync.Mutex
	n  int64
}

func bumpAsm(p *int64) int64

func (c *asmCounter) next() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = bumpAsm(&c.n)
	return c.n
}
