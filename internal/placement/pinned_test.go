package placement_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/internal/workload"
)

// updateGolden rewrites testdata/pinned.digest from the current build.
// The file was captured on the parent of the one-cost-primitive refactor
// (commit eb90a49, Eq. 5–8 written out five times); rewriting it with a
// later build is a declared re-pin of every solver decision, not a fix.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pinned.digest from this build")

const pinnedDigest = "testdata/pinned.digest"

// pinnedProblem is one named instance of the corpus.
type pinnedProblem struct {
	name string
	prob *placement.Problem
}

// skewed draws a normalized distribution whose mass concentrates on a few
// entries as concentration grows (placement_test.go's generator).
func skewed(rng *rand.Rand, n int, concentration float64) []float64 {
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

// pinnedCorpus is 60 seeds × 4 geometries × 3 concentrations with
// randomised bandwidths, routings and row bytes, then sim.PaperConfig's
// four evaluation cells and stepbench's shaped_* geometry (6 workers on 3
// nodes, bandwidths divided by its LinkScale of 192, fp16 rows of 256
// features). Every problem leaves enough capacity for one worker to die.
func pinnedCorpus() []pinnedProblem {
	var out []pinnedProblem
	geoms := []struct{ workers, perNode, layers, experts int }{
		{3, 1, 2, 4}, {4, 2, 3, 6}, {6, 2, 2, 8}, {6, 2, 4, 8},
	}
	for seed := int64(1); seed <= 60; seed++ {
		for g, geo := range geoms {
			for c, conc := range []float64{1, 3, 6} {
				rng := rand.New(rand.NewSource(seed*100 + int64(g)*10 + int64(c)))
				p := &placement.Problem{
					Workers: geo.workers, Layers: geo.layers, Experts: geo.experts,
					RoutingsPerStep: float64(64 * (1 + rng.Intn(128))),
					BytesPerToken:   float64(2*64*(1+rng.Intn(32)) + 4*rng.Intn(2)),
				}
				need := (geo.layers*geo.experts + geo.workers - 2) / (geo.workers - 1)
				for n := 0; n < geo.workers; n++ {
					node := n / geo.perNode
					bw := 1e9
					if node == 0 {
						bw = 10e9
					}
					p.Bandwidth = append(p.Bandwidth, bw*(0.5+rng.Float64()))
					p.Capacity = append(p.Capacity, need+rng.Intn(3))
					p.WorkerNode = append(p.WorkerNode, node)
				}
				for l := 0; l < geo.layers; l++ {
					p.P = append(p.P, skewed(rng, geo.experts, conc))
				}
				out = append(out, pinnedProblem{fmt.Sprintf("corpus/s%d/g%d/c%d", seed, g, c), p})
			}
		}
	}

	cfg := sim.PaperConfig()
	for _, profile := range workload.PaperProfiles() {
		out = append(out, pinnedProblem{"paper/" + profile.Name, cfg.PlacementProblem(profile.Matrix())})
	}

	topo := cluster.Uniform(6, 2, 4, 18.3*cluster.GB, 1.17*cluster.GB)
	bw := topo.Bandwidths()
	for n := range bw {
		bw[n] /= 192
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &placement.Problem{
			Workers: 6, Layers: 2, Experts: 8,
			Bandwidth: bw, Capacity: topo.Capacities(),
			RoutingsPerStep: 4 * 32 * 2,
			BytesPerToken:   placement.TokenBytes(wire.EncFP16, 256),
			WorkerNode:      topo.WorkerNodes(), MasterNode: topo.MasterNode,
		}
		for l := 0; l < p.Layers; l++ {
			p.P = append(p.P, skewed(rng, p.Experts, 4))
		}
		out = append(out, pinnedProblem{fmt.Sprintf("shaped/s%d", seed), p})
	}
	return out
}

// pinnedRow is one (problem, decision) line of the digest: the assignment
// and the three outputs of Evaluate on it, or err when the decision
// function refused.
type pinnedRow struct {
	key    string
	assign string
	vals   []float64 // CommTime, CrossNodeBytes, WorkerBytes...
}

func (r pinnedRow) String() string {
	var b strings.Builder
	b.WriteString(r.key + " " + r.assign)
	for _, v := range r.vals {
		fmt.Fprintf(&b, " %016x", math.Float64bits(v))
	}
	return b.String()
}

func parsePinnedRow(line string) (pinnedRow, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return pinnedRow{}, fmt.Errorf("short row %q", line)
	}
	r := pinnedRow{key: f[0], assign: f[1]}
	for _, h := range f[2:] {
		u, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return pinnedRow{}, err
		}
		r.vals = append(r.vals, math.Float64frombits(u))
	}
	return r, nil
}

// pinnedRows runs every decision function over the corpus.
func pinnedRows(t *testing.T) []pinnedRow {
	t.Helper()
	var rows []pinnedRow
	for _, pp := range pinnedCorpus() {
		p := pp.prob
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", pp.name, err)
		}
		row := func(decision string, a *placement.Assignment, err error) {
			r := pinnedRow{key: pp.name + ":" + decision, assign: "ERR"}
			if err == nil {
				m, evalErr := placement.Evaluate(p, a)
				if evalErr != nil {
					t.Fatalf("%s: %v", r.key, evalErr)
				}
				var b strings.Builder
				for l, ws := range a.Worker {
					if l > 0 {
						b.WriteByte('.')
					}
					for _, n := range ws {
						b.WriteByte(byte('0' + n))
					}
				}
				r.assign = b.String()
				r.vals = append([]float64{m.CommTime, m.CrossNodeBytes}, m.WorkerBytes...)
			}
			rows = append(rows, r)
		}
		for _, s := range []placement.Strategy{
			placement.LocalityLP{}, placement.Greedy{}, placement.Sequential{}, placement.Random{Seed: 7},
		} {
			a, err := s.Place(p)
			row(s.Name(), a, err)
		}
		// Failover of the first and of the last worker, from the one
		// layout that does not depend on P.
		seq, err := placement.Sequential{}.Place(p)
		if err != nil {
			t.Fatalf("%s: %v", pp.name, err)
		}
		for _, n := range []int{0, p.Workers - 1} {
			dead := make([]bool, p.Workers)
			dead[n] = true
			a, err := placement.Repair(p, seq, dead)
			row(fmt.Sprintf("repair-w%d", n), a, err)
		}
	}
	return rows
}

// TestPinnedPlacements: every strategy's assignment, Repair's, and the
// bits of Evaluate's CommTime, CrossNodeBytes and WorkerBytes on each are
// what the parent commit computed. A mismatch means a decision moved —
// for the LP, that the simplex landed on another vertex, which even a
// mathematically equal re-association of one coefficient causes.
func TestPinnedPlacements(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("4 392 single-goroutine solves: nothing for -race to find, and 20× the time")
	}
	if runtime.GOARCH != "amd64" {
		// The spec lets a compiler fuse x*y+z; arm64, ppc64le, s390x and
		// riscv64 do, and one differently rounded coefficient moves the LP.
		t.Skip("digest bits were captured on amd64, where Go never fuses multiply-add")
	}
	rows := pinnedRows(t)
	if *updateGolden {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r.String() + "\n")
		}
		if err := os.WriteFile(pinnedDigest, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", pinnedDigest, len(rows))
		return
	}
	f, err := os.Open(pinnedDigest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i, bad := 0, 0
	for ; sc.Scan(); i++ {
		want, err := parsePinnedRow(sc.Text())
		if err != nil {
			t.Fatalf("%s line %d: %v", pinnedDigest, i+1, err)
		}
		if i >= len(rows) {
			continue
		}
		got := rows[i]
		if got.key != want.key || got.assign != want.assign || !testutil.BitEqualSlices(got.vals, want.vals) {
			if bad++; bad <= 10 {
				t.Errorf("row %d moved:\n want %s\n got  %s", i+1, want, got)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(rows) {
		t.Fatalf("%s has %d rows, this build produces %d", pinnedDigest, i, len(rows))
	}
	if bad > 0 {
		t.Fatalf("%d of %d pinned rows moved", bad, len(rows))
	}
}
