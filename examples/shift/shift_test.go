package main

import (
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/replace"
)

// TestShiftDecision replays make shift's one decision in-process: the
// deployment's problem and WikiText-profiled P, the routing estimate P̂
// the controller saw at step 24 (twelve steps into Alpaca), and this
// run's controller configuration. Decide must order the same eight-expert
// migration the live run executes, and stand down once it is installed.
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
		{0.2924367988134823, 0.07519549794245162, 0.014473671017132704, 0.21243224107651176, 0.38173650330301045, 0.02372528784741146},
		{0.13099659875880532, 0.18593342269273533, 0.3624712627254315, 0.0614369612401832, 0.010210014896471688, 0.24895173968637327},
	}
	cfg := controllerConfig
	cfg.ExpertBytes = 11136 // the deployed spec's PayloadBytes (d=16, h=24, r=2)
	d, err := replace.Decide(&shifted, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != replace.Migrate {
		t.Fatalf("verdict %v (savings %.3gs/step, cost %.3gs), want migrate", d.Verdict, d.Savings, d.Cost)
	}
	if want := [][]int{{1, 1, 2, 0, 0, 3}, {1, 0, 1, 2, 2, 0}}; len(d.Moves) != 8 || !reflect.DeepEqual(d.Next.Worker, want) {
		t.Fatalf("%d moves toward %v, the live run moves 8 toward %v", len(d.Moves), d.Next.Worker, want)
	}
	if again, err := replace.Decide(&shifted, d.Next, cfg); err != nil || again.Verdict != replace.Confirmed {
		t.Fatalf("after the migration the verdict is %v (error %v), want the placement confirmed", again.Verdict, err)
	}
}
