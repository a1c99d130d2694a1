package placement

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/testutil"
)

// testProblem builds a placement problem on the paper's testbed with a
// synthetic skewed probability matrix.
func testProblem(t *testing.T, layers, experts int, concentration float64, seed int64) *Problem {
	t.Helper()
	// Capacity must admit the sequential (EP) layout, which puts
	// ceil(E/N) experts per layer on the first workers.
	topo := cluster.PaperTestbed(layers*((experts+5)/6) + 2)
	rng := rand.New(rand.NewSource(seed))
	P := make([][]float64, layers)
	for l := range P {
		P[l] = skewedDist(rng, experts, concentration)
	}
	p := &Problem{
		Workers:         topo.NumWorkers(),
		Layers:          layers,
		Experts:         experts,
		P:               P,
		Bandwidth:       topo.Bandwidths(),
		Capacity:        topo.Capacities(),
		RoutingsPerStep: 8192,
		BytesPerToken:   8192,
		WorkerNode:      topo.WorkerNodes(),
		MasterNode:      topo.MasterNode,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// skewedDist draws a normalized distribution where mass concentrates on a
// few entries as concentration grows.
func skewedDist(rng *rand.Rand, n int, concentration float64) []float64 {
	d := make([]float64, n)
	var sum float64
	for i := range d {
		d[i] = math.Pow(rng.Float64(), concentration) + 1e-3
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

func TestSequentialLayout(t *testing.T) {
	p := testProblem(t, 4, 8, 1, 1)
	a, err := Sequential{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			want := (l*p.Experts + e) % p.Workers
			if a.Worker[l][e] != want {
				t.Fatalf("sequential: L%d/E%d on worker %d, want %d", l, e, a.Worker[l][e], want)
			}
		}
	}
	// Global round-robin keeps loads even.
	loads := a.Loads(p.Workers)
	for n := 1; n < p.Workers; n++ {
		if diff := loads[n] - loads[0]; diff < -1 || diff > 1 {
			t.Fatalf("sequential loads uneven: %v", loads)
		}
	}
}

func TestEPLayout(t *testing.T) {
	p := testProblem(t, 2, 8, 1, 1)
	a, err := EP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker[0][0] != 0 || a.Worker[0][6] != 0 || a.Worker[1][7] != 1 || a.Worker[0][5] != 5 {
		t.Fatalf("EP layout wrong: %v", a.Worker)
	}
	// Worker 0 holds experts 0 and 6 of both blocks: a capacity of 3
	// cannot hold the layout, though the total can host every expert.
	p.Capacity[0] = 3
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (EP{}).Place(p); err == nil {
		t.Fatal("EP must refuse a capacity that cannot hold e mod N")
	}
}

func TestRandomDeterministicAndFeasible(t *testing.T) {
	p := testProblem(t, 6, 8, 1, 2)
	a1, err := Random{Seed: 9}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Random{Seed: 9}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	for l := range a1.Worker {
		for e := range a1.Worker[l] {
			if a1.Worker[l][e] != a2.Worker[l][e] {
				t.Fatal("random placement must be deterministic per seed")
			}
		}
	}
	a3, err := Random{Seed: 10}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for l := range a1.Worker {
		for e := range a1.Worker[l] {
			if a1.Worker[l][e] != a3.Worker[l][e] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds should give different placements")
	}
	if err := a1.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTightCapacity(t *testing.T) {
	p := testProblem(t, 6, 6, 1, 3)
	// Exactly enough capacity: 36 experts over 6 workers.
	for n := range p.Capacity {
		p.Capacity[n] = 6
	}
	a, err := Random{Seed: 4}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	for n, ld := range a.Loads(p.Workers) {
		if ld != 6 {
			t.Fatalf("worker %d load %d, want exactly 6", n, ld)
		}
	}
}

func TestEvaluateManual(t *testing.T) {
	// 1 block, 2 experts, 2 workers; P = (0.75, 0.25); B = (2, 1) B/s;
	// K=4 routings, 1 byte/token. Assignment: expert0→w0, expert1→w1.
	p := &Problem{
		Workers: 2, Layers: 1, Experts: 2,
		P:               [][]float64{{0.75, 0.25}},
		Bandwidth:       []float64{2, 1},
		Capacity:        []int{2, 2},
		RoutingsPerStep: 4, BytesPerToken: 1,
		WorkerNode: []int{0, 1}, MasterNode: 0,
	}
	a := NewAssignment(1, 2)
	a.Worker[0][0], a.Worker[0][1] = 0, 1
	m, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	// Worker0: 3 routings × 1B = 3B one-way → t = 4·3/2 = 6s.
	// Worker1: 1 routing → t = 4·1/1 = 4s. Block time = max = 6.
	if math.Abs(m.CommTime-6) > 1e-12 {
		t.Fatalf("CommTime = %v, want 6", m.CommTime)
	}
	if m.BottleneckWorker[0] != 0 {
		t.Fatalf("bottleneck = %d, want 0", m.BottleneckWorker[0])
	}
	// WorkerBytes: 4 transfers × one-way bytes.
	if !testutil.Close(m.WorkerBytes[0], 12) || !testutil.Close(m.WorkerBytes[1], 4) {
		t.Fatalf("WorkerBytes = %v", m.WorkerBytes)
	}
	// Cross-node: only worker1 (node 1) counts → 4 bytes over 2 nodes.
	if !testutil.Close(m.CrossNodeBytes, 4) || !testutil.Close(m.CrossNodeBytesPerNode, 2) {
		t.Fatalf("cross-node = %v / %v", m.CrossNodeBytes, m.CrossNodeBytesPerNode)
	}
}

func TestGreedyBeatsSequentialOnSkewedAccess(t *testing.T) {
	p := testProblem(t, 8, 8, 6, 5)
	seq, err := Sequential{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Evaluate(p, seq)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := Evaluate(p, gr)
	if err != nil {
		t.Fatal(err)
	}
	if mg.CommTime >= ms.CommTime {
		t.Fatalf("greedy (%.4f) should beat sequential (%.4f) on skewed access", mg.CommTime, ms.CommTime)
	}
}

func TestLocalityLPOnSmallProblem(t *testing.T) {
	p := testProblem(t, 4, 6, 5, 6)
	a, err := LocalityLP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	mlp, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Sequential{}.Place(p)
	mseq, _ := Evaluate(p, seq)
	rnd, _ := Random{Seed: 1}.Place(p)
	mrnd, _ := Evaluate(p, rnd)
	if mlp.CommTime > mseq.CommTime+1e-9 {
		t.Fatalf("LP comm time %.6f worse than sequential %.6f", mlp.CommTime, mseq.CommTime)
	}
	if mlp.CommTime > mrnd.CommTime+1e-9 {
		t.Fatalf("LP comm time %.6f worse than random %.6f", mlp.CommTime, mrnd.CommTime)
	}
}

func TestLocalityLPPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale LP in -short mode")
	}
	// Mixtral geometry: 32 blocks × 8 experts on the 6-GPU testbed.
	p := testProblem(t, 32, 8, 5, 7)
	a, err := LocalityLP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	mlp, _ := Evaluate(p, a)
	seq, _ := Sequential{}.Place(p)
	mseq, _ := Evaluate(p, seq)
	imp := Improvement(mseq.CommTime, mlp.CommTime)
	if imp <= 0.05 {
		t.Fatalf("LP improvement over sequential only %.1f%%", imp*100)
	}
	t.Logf("paper-scale improvement: %.1f%% (seq %.4fs → lp %.4fs)", imp*100, mseq.CommTime, mlp.CommTime)
}

// TestLPLowerBoundsRounded: the relaxation objective (2× for fwd+bwd) must
// lower-bound the evaluated comm time of the rounded assignment.
func TestLPLowerBoundsRounded(t *testing.T) {
	p := testProblem(t, 6, 6, 4, 8)
	s := LocalityLP{}
	lpProb := s.buildLP(p)
	sol, err := solveForTest(lpProb)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate's CommTime counts 4 transfers (2 pairs); λ counts one
	// send, so the relaxation bound is 4×Σλ.
	bound := 4 * sol.Objective
	if m.CommTime < bound-1e-9 {
		t.Fatalf("rounded comm time %.6f below LP bound %.6f — cost model inconsistency", m.CommTime, bound)
	}
}

func TestRoundFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		layers := 1 + rng.Intn(5)
		experts := 2 + rng.Intn(6)
		workers := 2 + rng.Intn(4)
		capNeed := layers * experts
		p := &Problem{
			Workers: workers, Layers: layers, Experts: experts,
			P:               make([][]float64, layers),
			Bandwidth:       make([]float64, workers),
			Capacity:        make([]int, workers),
			RoutingsPerStep: 100,
			BytesPerToken:   10,
			WorkerNode:      make([]int, workers),
		}
		for l := range p.P {
			p.P[l] = skewedDist(rng, experts, 2)
		}
		for n := 0; n < workers; n++ {
			p.Bandwidth[n] = 1 + rng.Float64()*10
			p.Capacity[n] = capNeed/workers + 1 + rng.Intn(3)
			p.WorkerNode[n] = rng.Intn(2)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		// Random fractional "relaxed solution" normalized over workers.
		vals := make([][][]float64, workers)
		for n := range vals {
			vals[n] = make([][]float64, layers)
			for l := range vals[n] {
				vals[n][l] = make([]float64, experts)
			}
		}
		for l := 0; l < layers; l++ {
			for e := 0; e < experts; e++ {
				col := skewedDist(rng, workers, 3)
				for n := 0; n < workers; n++ {
					vals[n][l][e] = col[n]
				}
			}
		}
		a, err := round(p, func(n, l, e int) float64 { return vals[n][l][e] })
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := a.Validate(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRoundCapacityRepair(t *testing.T) {
	// All experts strongly prefer worker 0, which has capacity 2: the
	// repair must evict the weakest affinities and reassign them.
	p := &Problem{
		Workers: 2, Layers: 2, Experts: 2,
		P:               [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		Bandwidth:       []float64{1, 1},
		Capacity:        []int{2, 2},
		RoutingsPerStep: 10, BytesPerToken: 1,
		WorkerNode: []int{0, 1},
	}
	affinity := [][]float64{{0.9, 0.8}, {0.7, 0.6}} // [l][e] on worker 0
	a, err := round(p, func(n, l, e int) float64 {
		if n == 0 {
			return affinity[l][e]
		}
		return 1 - affinity[l][e]
	})
	if err != nil {
		t.Fatal(err)
	}
	// The two strongest (0.9, 0.8) stay on worker 0; the rest move.
	if a.Worker[0][0] != 0 || a.Worker[0][1] != 0 {
		t.Fatalf("strongest affinities must stay: %v", a.Worker)
	}
	if a.Worker[1][0] != 1 || a.Worker[1][1] != 1 {
		t.Fatalf("evicted experts must move to worker 1: %v", a.Worker)
	}
}

// naiveRound applies only step 1 of the rounding (thresholding), assigning
// leftovers to the first worker with free capacity regardless of affinity:
// the ablation counterpart of Round.
func naiveRound(p *Problem, relaxed func(n, l, e int) float64) (*Assignment, error) {
	a := NewAssignment(p.Layers, p.Experts)
	load := make([]int, p.Workers)
	var leftovers [][2]int
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			placed := false
			for n := 0; n < p.Workers; n++ {
				if relaxed(n, l, e) > 0.5 && load[n] < p.Capacity[n] {
					a.Worker[l][e] = n
					load[n]++
					placed = true
					break
				}
			}
			if !placed {
				leftovers = append(leftovers, [2]int{l, e})
			}
		}
	}
	for _, le := range leftovers {
		placed := false
		for n := 0; n < p.Workers; n++ {
			if load[n] < p.Capacity[n] {
				a.Worker[le[0]][le[1]] = n
				load[n]++
				placed = true
				break
			}
		}
		if !placed {
			return nil, errors.New("placement: naive rounding ran out of capacity")
		}
	}
	if err := a.Validate(p); err != nil {
		return nil, err
	}
	return a, nil
}

// TestRoundBeatsNaiveRoundOnAverage compares the paper's three-step
// rounding with the thresholding-only ablation. On any single instance
// either can win (rounding maximizes affinity agreement with the relaxed
// solution, not the evaluated makespan directly), so the comparison is
// over a set of seeded instances: the full procedure must (a) always stay
// feasible, (b) never lose in total affinity, and (c) win on average in
// evaluated communication time.
func TestRoundBeatsNaiveRoundOnAverage(t *testing.T) {
	var fullSum, naiveSum float64
	for seed := int64(0); seed < 10; seed++ {
		p := testProblem(t, 6, 6, 5, 100+seed)
		s := LocalityLP{}
		sol, err := solveForTest(s.buildLP(p))
		if err != nil {
			t.Fatal(err)
		}
		xIdx := func(n, l, e int) int { return (n*p.Layers+l)*p.Experts + e }
		rel := func(n, l, e int) float64 { return sol.X[xIdx(n, l, e)] }
		full, err := round(p, rel)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := naiveRound(p, rel)
		if err != nil {
			t.Fatal(err)
		}
		affinity := func(a *Assignment) float64 {
			var s float64
			for l := 0; l < p.Layers; l++ {
				for e := 0; e < p.Experts; e++ {
					s += rel(a.Worker[l][e], l, e)
				}
			}
			return s
		}
		if affinity(full) < affinity(naive)-1e-9 {
			t.Fatalf("seed %d: full rounding affinity %.4f below naive %.4f", seed, affinity(full), affinity(naive))
		}
		mf, _ := Evaluate(p, full)
		mn, _ := Evaluate(p, naive)
		fullSum += mf.CommTime
		naiveSum += mn.CommTime
	}
	if fullSum > naiveSum+1e-9 {
		t.Fatalf("full rounding worse on average: %.6f vs %.6f", fullSum, naiveSum)
	}
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, 2, 4, 1, 13)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Capacity = []int{0, 0, 0, 0, 0, 1}
	if bad.Validate() == nil {
		t.Fatal("insufficient capacity must fail validation")
	}
	bad = *p
	bad.Bandwidth = []float64{1, 1, 1, 1, 1, 0}
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth must fail validation")
	}
	bad = *p
	bad.P = bad.P[:1]
	if bad.Validate() == nil {
		t.Fatal("wrong P geometry must fail validation")
	}
}

func TestAssignmentValidate(t *testing.T) {
	p := testProblem(t, 2, 4, 1, 14)
	a := NewAssignment(2, 4)
	a.Worker[0][0] = 99
	if a.Validate(p) == nil {
		t.Fatal("invalid worker index must fail")
	}
}

func TestImprovement(t *testing.T) {
	if !testutil.Close(Improvement(100, 75), 0.25) {
		t.Fatal("Improvement(100,75) should be 0.25")
	}
	if !testutil.Close(Improvement(0, 10), 0) {
		t.Fatal("zero baseline must yield 0")
	}
}
