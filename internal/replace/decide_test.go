package replace

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/placement"
)

// skewedProblem builds an 8×8 placement problem on the paper's testbed
// with a synthetic skewed probability matrix (placement's testProblem).
func skewedProblem(t *testing.T, concentration float64, seed int64) *placement.Problem {
	t.Helper()
	const layers, experts = 8, 8
	topo := cluster.PaperTestbed(layers*((experts+5)/6) + 2)
	rng := rand.New(rand.NewSource(seed))
	P := make([][]float64, layers)
	for l := range P {
		P[l] = make([]float64, experts)
		var sum float64
		for e := range P[l] {
			P[l][e] = math.Pow(rng.Float64(), concentration) + 1e-3
			sum += P[l][e]
		}
		for e := range P[l] {
			P[l][e] /= sum
		}
	}
	p := &placement.Problem{
		Workers: topo.NumWorkers(), Layers: layers, Experts: experts,
		P: P, Bandwidth: topo.Bandwidths(), Capacity: topo.Capacities(),
		RoutingsPerStep: 8192, BytesPerToken: 8192,
		WorkerNode: topo.WorkerNodes(), MasterNode: topo.MasterNode,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecideStablePlacement: with the same matrix the placement was
// solved on, the decision is to stay put — re-solving buys nothing.
func TestDecideStablePlacement(t *testing.T) {
	p := skewedProblem(t, 5, 31)
	current, err := placement.LocalityLP{}.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decide(p, current, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != Confirmed || len(d.Moves) != 0 {
		t.Fatalf("verdict %v with %d moves on the matrix the placement was solved on, want it confirmed", d.Verdict, len(d.Moves))
	}
	if d.Savings > 0.02*d.Current {
		t.Fatalf("re-solving on the same matrix should gain ~0, got %.1f%%", 100*d.Savings/d.Current)
	}
}

// TestDecideDetectsWorkloadChange: after the access matrix flips to a
// different dataset's preferences, the decision is a large-gain
// migration.
func TestDecideDetectsWorkloadChange(t *testing.T) {
	p1 := skewedProblem(t, 6, 32)
	current, err := placement.LocalityLP{}.Place(p1)
	if err != nil {
		t.Fatal(err)
	}
	// A different workload: reverse each row so the popular experts are
	// exactly the ones the old placement de-prioritized.
	p2 := *p1
	p2.P = make([][]float64, p1.Layers)
	for l := range p2.P {
		row := make([]float64, p1.Experts)
		for e := range row {
			row[e] = p1.P[l][p1.Experts-1-e]
		}
		p2.P[l] = row
	}
	d, err := Decide(&p2, current, Config{ExpertBytes: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != Migrate {
		t.Fatalf("verdict %v, want a workload flip to warrant migration", d.Verdict)
	}
	if d.Savings < 0.05*d.Current {
		t.Fatalf("workload flip should warrant re-placement, got %.1f%%", 100*d.Savings/d.Current)
	}
	if len(d.Moves) == 0 || d.Next == nil {
		t.Fatal("decision must include the proposed assignment and its moves")
	}
	if err := d.Next.Validate(&p2); err != nil {
		t.Fatal(err)
	}
}

// fixedStrategy returns a canned assignment or error.
type fixedStrategy struct {
	next *placement.Assignment
	err  error
}

func (fixedStrategy) Name() string { return "fixed" }
func (s fixedStrategy) Place(*placement.Problem) (*placement.Assignment, error) {
	return s.next, s.err
}

func layout(workers ...int) *placement.Assignment {
	return &placement.Assignment{Worker: [][]int{workers}}
}

// TestVerdictTable drives one requested re-solve through Controller.OnStep
// for every way Decide can end, and pins what the controller makes
// of it: LastReason, the decision counters, whether a plan ran, whether
// the drift baseline was re-anchored — and that every outcome, including
// the failures, costs a full cooldown.
func TestVerdictTable(t *testing.T) {
	const cooldown = 7
	for _, tc := range []struct {
		name        string
		strategy    placement.Strategy // nil: the default LocalityLP
		dead        []bool
		expertBytes float64
		failed      bool // Decide returns an error
		verdict     Verdict
		reason      string // prefix of LastReason
		moved       int64
		costSkips   int64
		gauges      bool // savings / move-cost gauges published
		rebaselined bool
	}{
		{name: "solver error", strategy: fixedStrategy{err: errors.New("no pivot")}, expertBytes: 1e3,
			failed: true, reason: "solver failed: no pivot"},
		{name: "diff error", strategy: fixedStrategy{next: placement.NewAssignment(2, 4)}, expertBytes: 1e3,
			failed: true, reason: "diff failed: "},
		{name: "invalid next", strategy: fixedStrategy{next: layout(0, 1, 0, 9)}, expertBytes: 1e3,
			failed: true, reason: "re-solved assignment invalid: "},
		{name: "empty diff", strategy: fixedStrategy{next: layout(0, 1, 0, 1)}, expertBytes: 1e3,
			verdict: Confirmed, reason: "re-solve confirmed current placement", rebaselined: true},
		// Hot experts 0 and 2 stay co-located, on the other worker: a
		// different layout at exactly the current cost.
		{name: "savings <= 0", strategy: fixedStrategy{next: layout(1, 0, 1, 0)}, expertBytes: 1e3,
			verdict: NoBetter, reason: "re-solve no better than current placement", rebaselined: true},
		{name: "cost-skip", expertBytes: 1e18,
			verdict: CostSkip, reason: "cost-skip: savings ", costSkips: 1, gauges: true},
		{name: "migrate", expertBytes: 1e3,
			verdict: Migrate, reason: "migrated 3 experts", moved: 3, gauges: true, rebaselined: true},
		// Worker 1 is dead: the current layout cannot be priced, so the
		// evacuation bypasses a cost gate that would refuse anything.
		{name: "infeasible current", dead: []bool{false, true}, expertBytes: 1e18,
			verdict: Migrate, reason: "migrated 2 experts", moved: 2, gauges: true, rebaselined: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := testProblem()
			h := testHandle(prob)
			mig := &fakeMigrator{assign: roundRobin(prob), dead: tc.dead}
			c := newController(t, prob, h, mig, Config{
				DriftThreshold: 0.5, CooldownSteps: cooldown,
				ExpertBytes: tc.expertBytes, Strategy: tc.strategy,
			})
			driftStep(h, 0, true)
			c.RequestResolve("verdict table")

			d, err := Decide(c.liveProblem(), mig.Assignment(), c.cfg)
			if (err != nil) != tc.failed || d.Verdict != tc.verdict {
				t.Fatalf("Decide verdict %v, error %v; want verdict %v, failed %v", d.Verdict, err, tc.verdict, tc.failed)
			}
			if tc.dead != nil && !math.IsInf(d.Savings, 1) {
				t.Fatalf("savings %v over an infeasible current layout, want +Inf", d.Savings)
			}

			if err := c.OnStep(0); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(c.LastReason, tc.reason) {
				t.Errorf("LastReason %q, want prefix %q", c.LastReason, tc.reason)
			}
			if c.cooldown != cooldown || c.stats.Get(obs.ReplaceCooldown) != cooldown {
				t.Errorf("cooldown %d (gauge %d), want %d", c.cooldown, c.stats.Get(obs.ReplaceCooldown), cooldown)
			}
			s := c.stats
			var migrations int64
			if tc.moved > 0 {
				migrations = 1
			}
			if s.Get(obs.ReplaceChecks) != 1 || s.Get(obs.ReplaceTriggers) != 1 ||
				s.Get(obs.ReplaceMigrations) != migrations || s.Get(obs.ReplaceMoves) != tc.moved ||
				s.Get(obs.ReplaceCostSkips) != tc.costSkips {
				t.Errorf("checks %d triggers %d migrations %d moves %d cost-skips %d, want 1 1 %d %d %d",
					s.Get(obs.ReplaceChecks), s.Get(obs.ReplaceTriggers), s.Get(obs.ReplaceMigrations),
					s.Get(obs.ReplaceMoves), s.Get(obs.ReplaceCostSkips), migrations, tc.moved, tc.costSkips)
			}
			if got := s.Get(obs.ReplaceSavingsNanos) != 0 || s.Get(obs.ReplaceMoveCostNanos) != 0; got != tc.gauges {
				t.Errorf("decision gauges %d / %d ns published = %v, want %v",
					s.Get(obs.ReplaceSavingsNanos), s.Get(obs.ReplaceMoveCostNanos), got, tc.gauges)
			}
			if (len(mig.plans) == 1) != (tc.moved > 0) {
				t.Errorf("%d plans executed with %d experts expected to move", len(mig.plans), tc.moved)
			}
			if got := h.Drift.MaxDrift() < 1e-9; got != tc.rebaselined {
				t.Errorf("MaxDrift %v: baseline re-anchored = %v, want %v", h.Drift.MaxDrift(), got, tc.rebaselined)
			}
		})
	}
}

// TestShiftDecision replays the one decision of the WikiText→Alpaca
// splice core's TestShiftReplacesOnce runs: the deployment's problem and
// WikiText-profiled P, the routing estimate P̂ the controller decides on
// at step 28 (the fifteenth Alpaca batch), and the deployed placement,
// which a controller arming over four boundaries still holds then. Decide
// must order the live run's eight-expert migration, and stand down once it
// is installed.
func TestShiftDecision(t *testing.T) {
	prob := &placement.Problem{
		Workers: 4, Layers: 2, Experts: 6,
		P: [][]float64{
			{0.302734375, 0.076171875, 0.01806640625, 0.20263671875, 0.36865234375, 0.03173828125},
			{0.12158203125, 0.22607421875, 0.34130859375, 0.07421875, 0.01123046875, 0.2255859375},
		},
		Bandwidth:       []float64{1.073741824e+10, 1.073741824e+10, 1.073741824e+09, 1.073741824e+09},
		Capacity:        []int{4, 4, 4, 4},
		RoutingsPerStep: 256,
		BytesPerToken:   32,
		WorkerNode:      []int{0, 0, 1, 1},
	}
	cur, err := placement.LocalityLP{}.Place(prob)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 0, 3, 1, 1, 2}, {3, 0, 1, 1, 2, 0}}; !reflect.DeepEqual(cur.Worker, want) {
		t.Fatalf("pre-shift placement %v, the live run deploys %v", cur.Worker, want)
	}

	shifted := *prob
	shifted.P = [][]float64{
		{0.28498691782380825, 0.08133320386673751, 0.013510620807767429, 0.22478403352533902, 0.37173836021403295, 0.02364686376231521},
		{0.13508700609649282, 0.19009792108807116, 0.36428547079257706, 0.06033852434300422, 0.011575034813929134, 0.23861604286592594},
	}
	cfg := Config{
		DriftThreshold: 0.09,
		CooldownSteps:  24,
		ExpertBytes:    11136, // the deployed spec's PayloadBytes (d=16, h=24, r=2)
	}
	d, err := Decide(&shifted, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != Migrate {
		t.Fatalf("verdict %v (savings %.3gs/step, cost %.3gs), want migrate", d.Verdict, d.Savings, d.Cost)
	}
	if want := [][]int{{1, 1, 2, 0, 0, 2}, {0, 0, 1, 2, 2, 1}}; len(d.Moves) != 8 || !reflect.DeepEqual(d.Next.Worker, want) {
		t.Fatalf("%d moves toward %v, the live run moves 8 toward %v", len(d.Moves), d.Next.Worker, want)
	}
	if again, err := Decide(&shifted, d.Next, cfg); err != nil || again.Verdict != Confirmed {
		t.Fatalf("after the migration the verdict is %v (error %v), want the placement confirmed", again.Verdict, err)
	}
}
