package broker

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/wire"
)

// migrate moves expert (layer, e) to worker dst, updating the active
// assignment. The source worker's optimizer keeps the moments of the
// experts that stay behind (see Worker's optimizer rebinding); the moved
// expert's own moments and AdamW clock travel with it, so its trajectory
// continues on the destination exactly.
//
// The move is ordered for failure atomicity: the source is snapshotted
// (non-destructively; a delta entry), the snapshot is installed on dst
// (install: the delta and its base's key, and the base itself after a
// miss), the assignment flips, and only then is the source copy
// released. A failure at any point before the flip — dst dead, dst
// rejecting the assign, src unreachable — leaves the assignment
// unchanged and the expert still served by src; the worst post-flip
// failure (release failing) leaves a stale, unreferenced copy on src
// that shutdown clears. The frozen weights cross a link only when dst's
// host store lacks them; the release reply carries nothing.
func (x *Executor) migrate(layer, e, dst int) error {
	src := x.workerOf(layer, e)
	if src == dst {
		return nil
	}
	if dst < 0 || dst >= len(x.conns) {
		return fmt.Errorf("broker: migrate destination %d out of range", dst)
	}
	if !x.Alive(dst) {
		return fmt.Errorf("broker: migrate destination %d: %w", dst, ErrWorkerDead)
	}
	payload, err := x.snapshotExpert(src, layer, e)
	if err != nil {
		return err
	}
	msgs := make([][]*wire.Message, len(x.conns))
	msgs[dst] = []*wire.Message{{Type: wire.MsgAssign, Layer: payload.Layer, Expert: payload.Expert, Tensors: payload.Tensors}}
	if err := x.install(msgs); err != nil {
		return err
	}
	// Publish the flip via clone-and-swap: concurrent Assignment() readers
	// (supervisor goroutine, metrics scrapers) see the old or the new grid
	// atomically, never an in-place mutation.
	next := x.assign.Load().Clone()
	next.Worker[layer][e] = dst
	x.assign.Store(next)
	// Release the now-stale source copy. The migration has already taken
	// effect; a release failure is surfaced but does not undo it.
	release := &wire.Message{Type: wire.MsgFetch, Layer: int32(layer), Expert: int32(e)}
	if err := x.one(src, release, wire.MsgFetchResult, nil); err != nil {
		return fmt.Errorf("broker: migrated L%d/E%d to worker %d but releasing the source copy on worker %d failed: %w",
			layer, e, dst, src, err)
	}
	return nil
}

// Rebalance migrates every expert whose worker differs between the
// current and the new assignment — VELA's "manipulate the distribution of
// expert layers at runtime". Returns the number of experts moved. The
// migration plan is ordered so that a worker shedding experts sheds
// before it receives (placement.OrderMoves with the pre/post loads as the
// bound), so no destination transiently hosts more experts than either
// layout gives it. The executor's assignment is updated incrementally
// per move, so a mid-way failure leaves a consistent (partially
// migrated) state.
func (x *Executor) Rebalance(next *placement.Assignment) (int, error) {
	cur := x.assign.Load()
	moves, err := placement.Diff(cur, next)
	if err != nil {
		return 0, fmt.Errorf("broker: rebalance: %w", err)
	}
	plan := placement.OrderMoves(moves, cur.Loads(len(x.conns)), nil)
	return x.ExecutePlan(plan)
}

// ExecutePlan executes an ordered migration plan move by move through the
// snapshot-first Migrate path, returning how many experts actually moved.
// Moves whose expert already sits on the destination are skipped; a move
// whose source no longer matches the live assignment means the plan was
// computed against a stale placement, and the plan aborts rather than
// migrate on bad information. A mid-plan failure returns the move count
// so far; the assignment stays consistent (each completed move was
// published atomically).
func (x *Executor) ExecutePlan(plan []placement.Move) (int, error) {
	moved := 0
	for _, m := range plan {
		cur := x.assign.Load().Worker[m.Layer][m.Expert]
		if cur == m.To {
			continue
		}
		if cur != m.From {
			return moved, fmt.Errorf("broker: stale migration plan: L%d/E%d is on worker %d, plan expected %d",
				m.Layer, m.Expert, cur, m.From)
		}
		if err := x.migrate(m.Layer, m.Expert, m.To); err != nil {
			return moved, fmt.Errorf("broker: migrating L%d/E%d: %w", m.Layer, m.Expert, err)
		}
		moved++
	}
	return moved, nil
}
