package checkpoint

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// AsyncWriter moves run-level checkpoint I/O off the training goroutine.
// The trainer hands a fully materialized *RunState to Submit at a step
// boundary (the capture itself is cheap — snapshot-first, the expert
// state was already pulled by the supervisor's snapshot path) and keeps
// training while a single background goroutine runs the fsync-heavy
// RunStore.Save.
//
// Backpressure policy: the channel holds at most one pending state and
// Submit never blocks. If a write is still in flight when the next
// boundary arrives, that boundary's checkpoint is dropped and counted
// as a skip — checkpoints are periodic best-effort durability, so the
// newest state that can be written without stalling training always
// wins over completeness of the generation sequence.
type AsyncWriter struct {
	store *RunStore
	stats *obs.Counters

	ch chan *RunState
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	err    error // first write error, latched
}

// NewAsyncWriter starts the background write loop. stats may be nil.
func NewAsyncWriter(store *RunStore, stats *obs.Counters) *AsyncWriter {
	w := &AsyncWriter{
		store: store,
		stats: stats,
		ch:    make(chan *RunState, 1),
	}
	w.wg.Add(1)
	go w.loop()
	return w
}

func (w *AsyncWriter) loop() {
	defer w.wg.Done()
	for rs := range w.ch {
		start := time.Now()
		gen, size, err := w.store.Save(rs)
		if err != nil {
			w.stats.Add(obs.CkptFailures, 1)
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
			continue
		}
		took := int64(time.Since(start))
		w.stats.Add(obs.CkptWrites, 1)
		w.stats.Set(obs.CkptGeneration, int64(gen))
		w.stats.Set(obs.CkptLastBytes, size)
		w.stats.Set(obs.CkptLastWriteNanos, took)
		w.stats.Add(obs.CkptTotalWriteNanos, took)
	}
}

// Submit queues one state for writing. It returns false — without
// blocking — when the previous write is still in flight (counted as a
// skip) or the writer is closed. The caller must not mutate rs or any
// memory it references after a true return.
func (w *AsyncWriter) Submit(rs *RunState) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	select {
	case w.ch <- rs:
		return true
	default:
		w.stats.Add(obs.CkptSkips, 1)
		return false
	}
}

// firstErr returns the first write error seen by the background loop, if any.
func (w *AsyncWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains any queued state, waits for the loop to exit, and
// returns the first write error. Safe to call more than once.
func (w *AsyncWriter) Close() error {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
	w.wg.Wait()
	return w.firstErr()
}
