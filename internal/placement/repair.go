package placement

import (
	"fmt"
	"sort"
)

// Repair re-solves the placement of the experts stranded on dead
// workers — the failover half of the runtime: every expert hosted by a
// live worker stays exactly where it is (no gratuitous migrations mid
// fine-tuning), and every orphaned expert is reassigned over the
// survivors with the same objective the LP rounding's capacity-repair
// step uses: within each block, orphans are placed in decreasing
// popularity onto the surviving worker that minimizes the block's
// resulting bottleneck communication time, subject to capacity.
//
// It returns a fresh assignment; current is not modified. Repair fails
// when the surviving capacity cannot host every expert — the cluster
// has genuinely lost too much, and the caller must surface that rather
// than overload a survivor.
func Repair(p *Problem, current *Assignment, dead []bool) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(dead) != p.Workers {
		return nil, fmt.Errorf("placement: repair got %d liveness flags, want %d", len(dead), p.Workers)
	}
	if len(current.Worker) != p.Layers {
		return nil, fmt.Errorf("placement: repair assignment has %d layers, want %d", len(current.Worker), p.Layers)
	}

	// Surviving capacity must cover the full grid.
	free := make([]int, p.Workers)
	surviving := 0
	for n, c := range p.Capacity {
		if !dead[n] {
			free[n] = c
			surviving += c
		}
	}
	if need := p.Layers * p.Experts; surviving < need {
		return nil, fmt.Errorf("placement: repair: surviving capacity %d cannot host %d experts", surviving, need)
	}

	fill := newLPTFill(p, free)
	type orphan struct{ l, e int }
	var orphans []orphan
	for l, row := range current.Worker {
		if len(row) != p.Experts {
			return nil, fmt.Errorf("placement: repair layer %d has %d experts, want %d", l, len(row), p.Experts)
		}
		for e, n := range row {
			if n < 0 || n >= p.Workers {
				return nil, fmt.Errorf("placement: repair: expert L%d/E%d on invalid worker %d", l, e, n)
			}
			if dead[n] {
				orphans = append(orphans, orphan{l, e})
				continue
			}
			fill.keep(l, e, n)
		}
	}
	for n, left := range fill.free {
		if left < 0 {
			return nil, fmt.Errorf("placement: repair: surviving worker %d already hosts %d experts, capacity %d",
				n, p.Capacity[n]-left, p.Capacity[n])
		}
	}

	// Most popular orphans first, so contested survivor capacity goes to
	// the experts that dominate the block's communication time.
	sort.SliceStable(orphans, func(i, j int) bool {
		return p.P[orphans[i].l][orphans[i].e] > p.P[orphans[j].l][orphans[j].e]
	})
	for _, o := range orphans {
		if !fill.place(o.l, o.e) {
			return nil, fmt.Errorf("placement: repair ran out of surviving capacity for L%d/E%d", o.l, o.e)
		}
	}

	if err := fill.a.Validate(p); err != nil {
		return nil, fmt.Errorf("placement: repair produced invalid assignment: %w", err)
	}
	return fill.a, nil
}
