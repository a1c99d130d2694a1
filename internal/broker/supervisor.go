package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// SupervisorConfig tunes failure detection. The zero value disables the
// background heartbeat (Probe can still be called manually).
type SupervisorConfig struct {
	// HeartbeatInterval is the period of the background ping loop started
	// by Start. <= 0 disables the loop.
	HeartbeatInterval time.Duration
}

// failureThreshold is how many consecutive missed heartbeats declare a
// worker dead.
const failureThreshold = 2

// Supervisor is the broker's failure handler: it heartbeats workers in
// the background, keeps the latest step-boundary expert snapshot (delta
// entries: what training changes, not the frozen weights), and fails the
// dead workers over before a restore (Recover): their experts are
// re-placed over the survivors (placement.Repair), and the restore — the
// caller's — ships every expert to its host in the repaired assignment.
// core.System wires Checkpoint as the first leg of its step boundary and
// Recover into its one restore.
//
// Concurrency: the heartbeat loop runs on its own goroutine and only
// calls Ping (which serializes with training rounds on each connection's
// semaphore) and MarkDead (atomic). Checkpoint and Recover must be
// called from the training goroutine, like every other Executor round.
type Supervisor struct {
	exec *Executor
	prob *placement.Problem
	cfg  SupervisorConfig
	// Obs, when non-nil, has its predicted-comm gauge refreshed after a
	// failover: Repair changes the placement, so the objective value the
	// drift monitor compares measurements against must follow it (the
	// drift baseline itself stays — Repair re-places over the same P).
	Obs *obs.Handle
	// OnFailover, when non-nil, is invoked after a completed failover
	// with the workers failed over in this round and the repaired
	// assignment (useful for logging and test assertions).
	OnFailover func(dead []int, next *placement.Assignment)
	// Redial, when non-nil, is attempted by the heartbeat loop for every
	// dead worker once per probe round: a restarted Expert Manager that
	// listens again is re-discovered without operator action. A
	// successfully handshaken connection is parked until the training
	// goroutine calls AdmitRejoins at a step boundary — admission swaps
	// the executor's connection slot, which must not race a training
	// round on the old one.
	Redial func(n int) (transport.Conn, error)
	// OnRejoin, when non-nil, is invoked (from the admitting goroutine)
	// for each worker re-admitted to the pool — the hook velamaster uses
	// to nudge the replace controller about the restored capacity.
	OnRejoin func(n int)

	mu      sync.Mutex
	latest  *checkpoint.ExpertSnapshot
	missed  []int
	pending map[int]transport.Conn

	stop chan struct{}
	done chan struct{}
}

// NewSupervisor builds a supervisor over the executor and the placement
// problem its assignment solves (Repair re-solves against it after a
// failure).
func NewSupervisor(exec *Executor, prob *placement.Problem, cfg SupervisorConfig) *Supervisor {
	return &Supervisor{
		exec:    exec,
		prob:    prob,
		cfg:     cfg,
		missed:  make([]int, exec.NumWorkers()),
		pending: make(map[int]transport.Conn),
	}
}

// Start launches the background heartbeat loop. No-op when the interval
// is unset or the loop already runs.
func (s *Supervisor) Start() {
	if s.cfg.HeartbeatInterval <= 0 || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.heartbeatLoop()
}

// Stop terminates the heartbeat loop and waits for its goroutine to
// exit; the supervisor leaks nothing once Stop returns. Idempotent.
func (s *Supervisor) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
	s.done = nil
}

func (s *Supervisor) heartbeatLoop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Probe()
		}
	}
}

// Probe heartbeats every live worker once. A worker that misses
// failureThreshold consecutive probes is marked dead — which closes its
// connection and converts any round blocked on it into a fast failure
// the trainer's recovery path then handles. Probe never performs the
// failover itself: restoring experts mid-step would race the training
// round, so detection and repair are deliberately split.
func (s *Supervisor) Probe() {
	for n := 0; n < s.exec.NumWorkers(); n++ {
		if !s.exec.Alive(n) {
			s.tryRedial(n)
			continue
		}
		err := s.ping(n)
		s.mu.Lock()
		if err == nil {
			s.missed[n] = 0
			s.mu.Unlock()
			continue
		}
		s.missed[n]++
		dead := s.missed[n] >= failureThreshold
		s.mu.Unlock()
		if dead || errors.Is(err, transport.ErrClosed) {
			s.exec.MarkDead(n)
		}
	}
}

// tryRedial attempts to reconnect one dead worker: dial, handshake, and
// park the connection for AdmitRejoins. At most one pending connection
// per worker; failures are silent (the next probe round tries again).
func (s *Supervisor) tryRedial(n int) {
	if s.Redial == nil {
		return
	}
	s.mu.Lock()
	_, already := s.pending[n]
	s.mu.Unlock()
	if already {
		return
	}
	conn, err := s.Redial(n)
	if err != nil {
		return
	}
	if err := s.handshake(conn); err != nil {
		_ = conn.Close()
		return
	}
	s.mu.Lock()
	s.pending[n] = conn
	s.mu.Unlock()
}

// handshake verifies a fresh connection answers a ping within the
// heartbeat interval (1s when the background loop is disabled). It runs
// directly on the connection — the executor's rounds refuse dead
// workers, and the slot swap has not happened yet.
func (s *Supervisor) handshake(conn transport.Conn) error {
	timeout := s.cfg.HeartbeatInterval
	if timeout <= 0 {
		timeout = time.Second
	}
	_ = conn.SetRecvDeadline(time.Now().Add(timeout)) // only a closed conn refuses; Send reports it
	defer conn.SetRecvDeadline(time.Time{})
	if err := conn.Send(&wire.Message{Type: wire.MsgPing}); err != nil {
		return err
	}
	reply, err := conn.Recv()
	if err != nil {
		return err
	}
	defer wire.Release(reply)
	if reply.Type != wire.MsgPong {
		return fmt.Errorf("broker: rejoin handshake answered %v, want %v", reply.Type, wire.MsgPong)
	}
	return nil
}

// AdmitRejoins folds every parked (redialed and handshaken) connection
// back into the executor and returns the re-admitted worker IDs. Call it
// from the training goroutine at a step boundary, like Checkpoint and
// Recover: admission swaps the worker's connection slot, which must
// serialize with training rounds.
func (s *Supervisor) AdmitRejoins() []int {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return nil
	}
	pending := s.pending
	s.pending = make(map[int]transport.Conn)
	s.mu.Unlock()
	var admitted []int
	for n, conn := range pending {
		if err := s.rejoin(n, conn); err != nil {
			_ = conn.Close()
			continue
		}
		admitted = append(admitted, n)
	}
	return admitted
}

// PendingRejoins reports how many redialed-and-handshaken workers are
// parked awaiting step-boundary admission — the /healthz "rejoining"
// count that lets operators tell "down" from "coming back".
func (s *Supervisor) PendingRejoins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// rejoin re-admits dead worker n over conn: the executor's connection
// slot is swapped (MarkAlive), the heartbeat miss counter re-armed, and
// a verification ping driven as an ordinary round. On ping
// failure the worker is marked dead again and the error returned — the
// pool is never left with an unresponsive "live" worker. Call from the
// training goroutine; in-process deployments (tests, examples) that
// restart a worker themselves call this directly instead of wiring
// Redial.
func (s *Supervisor) rejoin(n int, conn transport.Conn) error {
	if err := s.exec.rejoin(n, conn); err != nil {
		return err
	}
	if err := s.exec.Ping(n); err != nil {
		s.exec.MarkDead(n)
		return fmt.Errorf("broker: rejoin verify ping of worker %d: %w", n, err)
	}
	s.mu.Lock()
	s.missed[n] = 0
	s.mu.Unlock()
	s.exec.Counters.Add(obs.WorkerRejoins, 1)
	if s.OnRejoin != nil {
		s.OnRejoin(n)
	}
	return nil
}

// Checkpoint pulls a snapshot of every hosted expert stamped with the
// completed step and retains it: the expert slice of the boundary's
// restore point.
func (s *Supervisor) Checkpoint(step int) error {
	snap, err := s.exec.SnapshotExperts(step)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.latest = snap
	s.mu.Unlock()
	return nil
}

// Latest returns the retained snapshot (nil before the first
// Checkpoint).
func (s *Supervisor) Latest() *checkpoint.ExpertSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// ping heartbeats worker n once and counts the outcome.
func (s *Supervisor) ping(n int) error {
	err := s.exec.Ping(n)
	outcome := obs.HeartbeatsAnswered
	if err != nil {
		outcome = obs.HeartbeatsMissed
	}
	s.exec.Counters.Add(outcome, 1)
	return err
}

// Recover is the failover half of a restore. It pings every live worker
// once and marks the silent ones dead; every dead worker that still hosts
// experts in assign is then failed over — whether this round's pings
// found it or the heartbeat loop's Probe marked it dead first (Probe never
// repairs, so its deaths reach here as a step failing fast on
// ErrWorkerDead): placement.Repair re-places its experts over the
// survivors. restore then ships the experts to next, the repaired
// assignment (assign itself when no dead worker hosts any). Only once
// restore succeeds does the executor adopt next and the retry and the
// failover count, so a refused restore moves nothing.
func (s *Supervisor) Recover(assign *placement.Assignment, restore func(next *placement.Assignment) error) error {
	for n := 0; n < s.exec.NumWorkers(); n++ {
		if s.exec.Alive(n) && s.ping(n) != nil {
			s.exec.MarkDead(n)
		}
	}
	deadMask := s.exec.DeadMask()
	loads := assign.Loads(len(deadMask))
	var failed []int
	orphans := 0
	for n, dead := range deadMask {
		if dead && loads[n] > 0 {
			failed = append(failed, n)
			orphans += loads[n]
		}
	}
	next, err := assign, error(nil)
	if len(failed) > 0 {
		if next, err = placement.Repair(s.prob, assign, deadMask); err != nil {
			return fmt.Errorf("broker: failover: %w", err)
		}
	}
	if err := restore(next); err != nil {
		return err
	}
	s.exec.SetAssignment(next)
	if len(failed) > 0 {
		if s.Obs != nil {
			if m, err := placement.Evaluate(s.prob, next); err == nil {
				s.Obs.Drift.SetPredictedComm(m.CommTime)
			}
		}
		s.exec.Counters.Add(obs.WorkerFailovers, int64(len(failed)))
		s.exec.Counters.Add(obs.ExpertsRecovered, int64(orphans))
		if s.OnFailover != nil {
			s.OnFailover(failed, next)
		}
	}
	s.exec.Counters.Add(obs.StepRetries, 1)
	return nil
}
