// Package cluster models the distributed environment VELA runs in: compute
// nodes, devices (GPUs in the paper), the bandwidths between the master
// process and each worker, and per-device expert capacities.
//
// The default fixture mirrors the paper's testbed (§V-A): three nodes with
// two NVIDIA V100s each, 18.3 GB/s measured intra-node bandwidth and
// 1.17 GB/s Ethernet between nodes.
package cluster

import (
	"fmt"
)

// GB is one gigabyte in bytes, for bandwidth literals.
const GB = 1 << 30

// Device is one compute device hosting a worker (Expert Manager) process.
type Device struct {
	ID       int
	Node     int // physical node the device belongs to
	Name     string
	Capacity int // C_n: maximum number of experts this device can host
}

// Topology is the cluster the fine-tuning job is deployed on. The master
// process lives on MasterNode; one worker process runs per device,
// following the paper's "launch worker processes on each available GPU".
type Topology struct {
	Devices    []Device
	MasterNode int
	// IntraBW is the master↔worker bandwidth when the worker is on the
	// master's node (PCIe/NVLink class), in bytes/second.
	IntraBW float64
	// InterBW is the master↔worker bandwidth across nodes (Ethernet
	// class), in bytes/second.
	InterBW float64
}

// Validate checks structural sanity.
func (t *Topology) Validate() error {
	if len(t.Devices) == 0 {
		return fmt.Errorf("cluster: no devices")
	}
	if t.IntraBW <= 0 || t.InterBW <= 0 {
		return fmt.Errorf("cluster: bandwidths must be positive")
	}
	for i, d := range t.Devices {
		if d.ID != i {
			return fmt.Errorf("cluster: device %d has ID %d; IDs must be dense", i, d.ID)
		}
		if d.Capacity <= 0 {
			return fmt.Errorf("cluster: device %d has non-positive capacity", i)
		}
	}
	return nil
}

// NumWorkers returns the number of worker devices.
func (t *Topology) NumWorkers() int { return len(t.Devices) }

// NumNodes returns the number of distinct nodes.
func (t *Topology) NumNodes() int {
	seen := map[int]bool{t.MasterNode: true}
	for _, d := range t.Devices {
		seen[d.Node] = true
	}
	return len(seen)
}

// bandwidth returns B_n, the master↔worker bandwidth for device n in
// bytes/second.
func (t *Topology) bandwidth(n int) float64 {
	if t.Devices[n].Node == t.MasterNode {
		return t.IntraBW
	}
	return t.InterBW
}

// Bandwidths returns B_n for every worker.
func (t *Topology) Bandwidths() []float64 {
	b := make([]float64, len(t.Devices))
	for n := range t.Devices {
		b[n] = t.bandwidth(n)
	}
	return b
}

// CrossNode reports whether traffic between the master and device n
// crosses a node boundary (and therefore counts as the paper's "external
// traffic").
func (t *Topology) CrossNode(n int) bool {
	return t.Devices[n].Node != t.MasterNode
}

// Capacities returns C_n for every worker.
func (t *Topology) Capacities() []int {
	c := make([]int, len(t.Devices))
	for n, d := range t.Devices {
		c[n] = d.Capacity
	}
	return c
}

// WorkerNodes returns the node index of every worker.
func (t *Topology) WorkerNodes() []int {
	nodes := make([]int, len(t.Devices))
	for n, d := range t.Devices {
		nodes[n] = d.Node
	}
	return nodes
}

// PaperTestbed reproduces the evaluation environment of §V-A: three nodes
// of two V100-class devices, master on node 0, 18.3 GB/s intra-node and
// 1.17 GB/s inter-node. capacityPerDevice is C_n, derived in the paper
// from GPU memory divided by per-expert memory; 48 comfortably hosts
// 256/6 ≈ 43 Mixtral experts with headroom.
func PaperTestbed(capacityPerDevice int) Topology {
	t := Topology{
		MasterNode: 0,
		IntraBW:    18.3 * GB,
		InterBW:    1.17 * GB,
	}
	for i := 0; i < 6; i++ {
		t.Devices = append(t.Devices, Device{
			ID:       i,
			Node:     i / 2,
			Name:     fmt.Sprintf("node%d/gpu%d", i/2, i%2),
			Capacity: capacityPerDevice,
		})
	}
	return t
}

// Uniform builds a topology of n devices spread over nodes of
// devicesPerNode each, handy for tests and sweeps.
func Uniform(nDevices, devicesPerNode, capacity int, intraBW, interBW float64) Topology {
	t := Topology{MasterNode: 0, IntraBW: intraBW, InterBW: interBW}
	for i := 0; i < nDevices; i++ {
		t.Devices = append(t.Devices, Device{
			ID:       i,
			Node:     i / devicesPerNode,
			Name:     fmt.Sprintf("node%d/dev%d", i/devicesPerNode, i%devicesPerNode),
			Capacity: capacity,
		})
	}
	return t
}
