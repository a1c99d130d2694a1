package placement

import "fmt"

// Metrics summarizes the expected per-step communication behaviour of an
// assignment under the paper's cost model (§IV-B).
type Metrics struct {
	// CommTime is Eq. (7)–(8): Σ_l max_n E[T_{n,l}] with
	// E[T_{n,l}] = (bytes·K/B_n)·Σ_e X·P per transfer, times the four
	// transfers of a step (cost.go).
	CommTime float64
	// WorkerBytes[n] is the expected total bytes exchanged between the
	// master and worker n per step (4 transfers per routed token copy:
	// feature send/gather + gradient send/gather).
	WorkerBytes []float64
	// CrossNodeBytes is the expected cross-node ("external") traffic per
	// step, summed over workers outside the master's node.
	CrossNodeBytes float64
	// CrossNodeBytesPerNode is CrossNodeBytes averaged over the number of
	// nodes, matching Fig. 5's "average cross-node communication traffic
	// per node" y-axis.
	CrossNodeBytesPerNode float64
	// BottleneckWorker[l] is argmax_n E[T_{n,l}] per block.
	BottleneckWorker []int
}

// Evaluate computes the expected communication metrics of assignment a on
// problem p.
func Evaluate(p *Problem, a *Assignment) (*Metrics, error) {
	if err := a.Validate(p); err != nil {
		return nil, err
	}
	m := &Metrics{
		WorkerBytes:      make([]float64, p.Workers),
		BottleneckWorker: make([]int, p.Layers),
	}
	nodes := map[int]bool{p.MasterNode: true}
	for _, n := range p.WorkerNode {
		nodes[n] = true
	}
	routed := make([]float64, p.Workers)
	for l := 0; l < p.Layers; l++ {
		// Expected routings per worker for this block.
		clear(routed)
		for e := 0; e < p.Experts; e++ {
			routed[a.Worker[l][e]] += p.P[l][e] * p.RoutingsPerStep
		}
		sec, worst := p.BlockComm(routed, &m.CrossNodeBytes)
		m.CommTime += sec
		m.BottleneckWorker[l] = worst
		for n, r := range routed {
			m.WorkerBytes[n] += transfers * p.routedBytes(r)
		}
	}
	m.CrossNodeBytesPerNode = m.CrossNodeBytes / float64(len(nodes))
	return m, nil
}

// Improvement returns the relative reduction (0..1) of metric value
// `vela` against `baseline`, e.g. Improvement(t_ep, t_vela) = 0.25 means
// 25% lower.
func Improvement(baseline, vela float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - vela) / baseline
}

// String renders a short human-readable summary.
func (m *Metrics) String() string {
	return fmt.Sprintf("comm=%.4fs crossNode=%.1fMB/node", m.CommTime, m.CrossNodeBytesPerNode/1e6)
}
