package cluster

import (
	"testing"

	"repro/internal/testutil"
)

func TestPaperTestbed(t *testing.T) {
	topo := PaperTestbed(48)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.NumWorkers() != 6 {
		t.Fatalf("workers = %d, want 6", topo.NumWorkers())
	}
	if topo.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", topo.NumNodes())
	}
	total := 0
	for _, c := range topo.Capacities() {
		total += c
	}
	if total != 288 {
		t.Fatalf("capacity = %d, want 288", total)
	}
	// Devices 0,1 share the master's node: fast link, not cross-node.
	if topo.CrossNode(0) || topo.CrossNode(1) {
		t.Fatal("devices on master node must not be cross-node")
	}
	for n := 2; n < 6; n++ {
		if !topo.CrossNode(n) {
			t.Fatalf("device %d must be cross-node", n)
		}
	}
	if !testutil.Close(topo.bandwidth(0), 18.3*GB) || !testutil.Close(topo.bandwidth(5), 1.17*GB) {
		t.Fatalf("bandwidths drifted from the paper: %v / %v", topo.bandwidth(0), topo.bandwidth(5))
	}
	bs := topo.Bandwidths()
	if len(bs) != 6 || !testutil.BitEqual(bs[0], topo.bandwidth(0)) {
		t.Fatal("Bandwidths inconsistent")
	}
	nodes := topo.WorkerNodes()
	if nodes[0] != 0 || nodes[2] != 1 || nodes[4] != 2 {
		t.Fatalf("worker nodes wrong: %v", nodes)
	}
	caps := topo.Capacities()
	for _, c := range caps {
		if c != 48 {
			t.Fatalf("capacities wrong: %v", caps)
		}
	}
}

func TestUniformTopology(t *testing.T) {
	topo := Uniform(4, 2, 10, 100, 10)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", topo.NumNodes())
	}
	if !testutil.Close(topo.bandwidth(1), 100) || !testutil.Close(topo.bandwidth(2), 10) {
		t.Fatal("intra/inter classification wrong")
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	empty := Topology{IntraBW: 1, InterBW: 1}
	if empty.Validate() == nil {
		t.Fatal("empty topology must fail")
	}
	bad := Uniform(2, 2, 10, 100, 10)
	bad.Devices[1].ID = 7
	if bad.Validate() == nil {
		t.Fatal("non-dense IDs must fail")
	}
	bad2 := Uniform(2, 2, 0, 100, 10)
	if bad2.Validate() == nil {
		t.Fatal("zero capacity must fail")
	}
	bad3 := Uniform(2, 2, 10, 0, 10)
	if bad3.Validate() == nil {
		t.Fatal("zero bandwidth must fail")
	}
}
