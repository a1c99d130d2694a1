package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// FaultPlan configures the failure modes a Faulty wrapper injects. All
// probabilities are evaluated per message against the wrapper's seeded
// RNG, so a given (seed, plan, traffic) triple misbehaves identically
// on every run — the chaos tests stay deterministic.
type FaultPlan struct {
	// DropProb silently discards a Send with this probability: the
	// caller sees success, the peer never sees the message.
	DropProb float64
	// DelayProb delays a Send with this probability by a uniform
	// duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays; zero disables delays even when
	// DelayProb is set.
	MaxDelay time.Duration
	// DupProb delivers a Send twice with this probability — the
	// at-least-once failure mode a retrying transport exhibits.
	DupProb float64
	// CloseAfterSends, when positive, abruptly closes the underlying
	// connection after that many Send calls have been observed (the
	// closing Send itself fails).
	CloseAfterSends int
	// PartitionSend simulates a one-way partition: every Send is
	// silently dropped while Recv keeps working.
	PartitionSend bool
	// PartitionRecv simulates the opposite one-way partition: every
	// received message is discarded, so Recv blocks until the deadline
	// or the close signal fires.
	PartitionRecv bool
}

// Faulty wraps a Conn with deterministic, seeded fault injection. It is
// the chaos substrate of the failure tests: every recovery behaviour in
// broker and trainer is driven through one or more Faulty endpoints.
//
// Faulty is safe for the same concurrency pattern as the wrapped Conn
// (one sender, one receiver); the RNG and counters carry their own lock
// so a sender and receiver may overlap. Close and the deadlines are the
// wrapped Conn's.
type Faulty struct {
	Conn
	plan FaultPlan

	mu    sync.Mutex
	rng   *rand.Rand
	sends int
	// armedAfter < 0 means no armed close; otherwise the underlying
	// conn is abruptly closed once that many further sends occur.
	armedAfter int
}

// NewFaulty wraps inner with the given fault plan and RNG seed.
func NewFaulty(inner Conn, seed int64, plan FaultPlan) *Faulty {
	return &Faulty{Conn: inner, plan: plan, rng: rand.New(rand.NewSource(seed)), armedAfter: -1}
}

// ArmClose schedules an abrupt close of the underlying connection after
// the next afterSends Send calls (0 = on the very next Send). Tests use
// it to kill a worker mid-exchange at a precise, deterministic point.
func (f *Faulty) ArmClose(afterSends int) {
	f.mu.Lock()
	f.armedAfter = afterSends
	f.mu.Unlock()
}

// sendVerdict decides, under the lock, what to do with one Send.
type sendVerdict struct {
	abruptClose bool
	drop        bool
	dup         bool
	delay       time.Duration
}

func (f *Faulty) judgeSend() sendVerdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := sendVerdict{}
	f.sends++
	if f.armedAfter >= 0 {
		if f.armedAfter == 0 {
			v.abruptClose = true
		}
		f.armedAfter--
	}
	if f.plan.CloseAfterSends > 0 && f.sends >= f.plan.CloseAfterSends {
		v.abruptClose = true
	}
	if v.abruptClose {
		return v
	}
	if f.plan.PartitionSend {
		v.drop = true
		return v
	}
	if f.plan.DropProb > 0 && f.rng.Float64() < f.plan.DropProb {
		v.drop = true
		return v
	}
	if f.plan.DelayProb > 0 && f.plan.MaxDelay > 0 && f.rng.Float64() < f.plan.DelayProb {
		v.delay = time.Duration(1 + f.rng.Int63n(int64(f.plan.MaxDelay)))
	}
	if f.plan.DupProb > 0 && f.rng.Float64() < f.plan.DupProb {
		v.dup = true
	}
	return v
}

// Send implements Conn, applying the fault plan.
func (f *Faulty) Send(m *wire.Message) error {
	v := f.judgeSend()
	if v.abruptClose {
		_ = f.Conn.Close()
		return ErrClosed
	}
	if v.drop {
		return nil // swallowed: the caller believes it was delivered
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	if err := f.Conn.Send(m); err != nil {
		return err
	}
	if v.dup {
		return f.Conn.Send(m)
	}
	return nil
}

// Recv implements Conn. Under PartitionRecv every delivered message is
// discarded, so the call blocks until a deadline or close surfaces.
func (f *Faulty) Recv() (*wire.Message, error) {
	for {
		m, err := f.Conn.Recv()
		if err != nil {
			return nil, err
		}
		if f.plan.PartitionRecv {
			continue
		}
		return m, nil
	}
}
