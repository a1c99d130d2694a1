package placement

import (
	"math/rand"
	"testing"
)

// TestLocalityLPPrefersFastWorkers: with ample capacity, the LP must pile
// routing mass onto the workers with the highest master↔worker bandwidth.
func TestLocalityLPPrefersFastWorkers(t *testing.T) {
	p := &Problem{
		Workers: 3, Layers: 2, Experts: 4,
		P:               [][]float64{{0.4, 0.3, 0.2, 0.1}, {0.5, 0.3, 0.1, 0.1}},
		Bandwidth:       []float64{100, 1, 1},
		Capacity:        []int{8, 8, 8},
		RoutingsPerStep: 1000,
		BytesPerToken:   100,
		WorkerNode:      []int{0, 1, 2},
	}
	a, err := LocalityLP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	// Everything fits on the fast worker, and the LP should put it there.
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			if a.Worker[l][e] != 0 {
				t.Fatalf("L%d/E%d placed on slow worker %d with fast capacity free", l, e, a.Worker[l][e])
			}
		}
	}
}

// TestLocalityLPRespectsTightCapacity: when the fast worker can host only
// one expert per block's worth, the most popular experts win the slots.
func TestLocalityLPRespectsTightCapacity(t *testing.T) {
	p := &Problem{
		Workers: 2, Layers: 1, Experts: 4,
		P:               [][]float64{{0.7, 0.1, 0.1, 0.1}},
		Bandwidth:       []float64{100, 1},
		Capacity:        []int{1, 4},
		RoutingsPerStep: 1000,
		BytesPerToken:   100,
		WorkerNode:      []int{0, 1},
	}
	a, err := LocalityLP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker[0][0] != 0 {
		t.Fatalf("the popular expert must win the fast slot, got %v", a.Worker)
	}
	loads := a.Loads(2)
	if loads[0] != 1 || loads[1] != 3 {
		t.Fatalf("capacity violated: %v", loads)
	}
}

func TestGreedyTightCapacity(t *testing.T) {
	p := &Problem{
		Workers: 2, Layers: 2, Experts: 2,
		P:               [][]float64{{0.9, 0.1}, {0.8, 0.2}},
		Bandwidth:       []float64{10, 10},
		Capacity:        []int{2, 2},
		RoutingsPerStep: 100,
		BytesPerToken:   10,
		WorkerNode:      []int{0, 1},
	}
	a, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	loads := a.Loads(2)
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("greedy must fill exactly to capacity: %v", loads)
	}
	// With equal bandwidth, per-block LPT separates the two experts of
	// each block.
	for l := 0; l < 2; l++ {
		if a.Worker[l][0] == a.Worker[l][1] {
			t.Fatalf("block %d experts colocated under equal-bandwidth LPT: %v", l, a.Worker[l])
		}
	}
}

// TestStrategiesAlwaysFeasibleProperty: every strategy yields a valid
// assignment on randomized feasible problems.
func TestStrategiesAlwaysFeasibleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strategies := []Strategy{Sequential{}, Random{Seed: 3}, Greedy{}, LocalityLP{}}
	for trial := 0; trial < 15; trial++ {
		layers := 1 + rng.Intn(4)
		experts := 2 + rng.Intn(5)
		workers := 2 + rng.Intn(4)
		p := &Problem{
			Workers: workers, Layers: layers, Experts: experts,
			P:               make([][]float64, layers),
			Bandwidth:       make([]float64, workers),
			Capacity:        make([]int, workers),
			RoutingsPerStep: 500,
			BytesPerToken:   64,
			WorkerNode:      make([]int, workers),
		}
		for l := range p.P {
			p.P[l] = skewedDist(rng, experts, 1+rng.Float64()*4)
		}
		total := layers * experts
		for n := 0; n < workers; n++ {
			p.Bandwidth[n] = 0.5 + rng.Float64()*20
			p.Capacity[n] = total/workers + 1 + rng.Intn(3)
			p.WorkerNode[n] = n % 2
		}
		for _, s := range strategies {
			a, err := s.Place(p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := a.Validate(p); err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if _, err := Evaluate(p, a); err != nil {
				t.Fatalf("trial %d %s evaluate: %v", trial, s.Name(), err)
			}
		}
	}
}

// TestLPDominatesBaselinesProperty: on every randomized instance the LP's
// evaluated comm time is within a whisker of the best baseline (it may
// tie, it must not lose materially — rounding can cost a little).
func TestLPDominatesBaselinesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var lpSum, greedySum float64
	for trial := 0; trial < 10; trial++ {
		layers := 2 + rng.Intn(4)
		experts := 4 + rng.Intn(4)
		p := &Problem{
			Workers: 4, Layers: layers, Experts: experts,
			P:               make([][]float64, layers),
			Bandwidth:       []float64{50, 10, 2, 1},
			Capacity:        make([]int, 4),
			RoutingsPerStep: 1000,
			BytesPerToken:   128,
			WorkerNode:      []int{0, 0, 1, 1},
		}
		for l := range p.P {
			p.P[l] = skewedDist(rng, experts, 3)
		}
		for n := range p.Capacity {
			p.Capacity[n] = layers*experts/4 + 2
		}
		lpA, err := LocalityLP{}.Place(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mlp, err := Evaluate(p, lpA)
		if err != nil {
			t.Fatal(err)
		}
		// Per instance: the LP must never lose to the non-optimizing
		// baselines (they ignore popularity entirely).
		for _, s := range []Strategy{Sequential{}, Random{Seed: 9}} {
			a, err := s.Place(p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Evaluate(p, a)
			if err != nil {
				t.Fatal(err)
			}
			if mlp.CommTime > m.CommTime+1e-12 {
				t.Fatalf("trial %d: LP (%.6f) lost to %s (%.6f)",
					trial, mlp.CommTime, s.Name(), m.CommTime)
			}
		}
		// Against greedy LPT, rounding can lose on a tight instance;
		// compare in aggregate below.
		gA, err := Greedy{}.Place(p)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := Evaluate(p, gA)
		if err != nil {
			t.Fatal(err)
		}
		lpSum += mlp.CommTime
		greedySum += mg.CommTime
	}
	if lpSum > greedySum*1.02 {
		t.Fatalf("LP worse than greedy in aggregate: %.6f vs %.6f", lpSum, greedySum)
	}
}
