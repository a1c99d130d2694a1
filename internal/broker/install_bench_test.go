package broker

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/wire"
)

// slowLink is a bandwidth-shaped master-side conn: every frame, in
// either direction, costs its encoded size over bytesPerSec of wall time
// on the goroutine that moves it, as stepbench's shaped links do.
type slowLink struct {
	transport.Conn
	bytesPerSec float64
	meter       *byteMeter
}

func (s *slowLink) wait(m *wire.Message) {
	n := wire.EncodedSize(m)
	s.meter.n.Add(int64(n))
	time.Sleep(time.Duration(float64(n) / s.bytesPerSec * float64(time.Second)))
}

func (s *slowLink) Send(m *wire.Message) error {
	s.wait(m)
	return s.Conn.Send(m)
}

func (s *slowLink) Recv() (*wire.Message, error) {
	m, err := s.Conn.Recv()
	if err == nil {
		s.wait(m)
	}
	return m, err
}

// BenchmarkDistributeShaped times one Distribute at stepbench
// shaped_locality's expert geometry (2 layers x 8 experts, d=256, h=64,
// LoRA r=8, experts dealt round-robin) to 6 AdamW workers on 3 nodes of
// 2, behind links of the paper testbed's bandwidths slowed 192x as
// stepbench slows them: the master's node's two workers at 18.3 GB/s,
// the four others at 1.17 GB/s. The base stores are per node: the master
// and node 0's workers share one. Each op starts a fresh pool, untimed:
//
//   - hit: every node's store holds the bases — stepbench, whose "nodes"
//     share one host;
//   - cold: nodes 1 and 2 start with empty stores, a first install on
//     hosts that never held these bases: their experts miss, and a
//     second round ships their bases;
//   - nostore: no side has a store, so every install misses and every
//     base follows in the second round.
func BenchmarkDistributeShaped(b *testing.B) {
	const layers, experts, workers, perNode = 2, 8, 6, 2
	spec := ExpertSpec{D: 256, Hidden: 64, LoRARank: 8, LoRAAlpha: 16}
	topo := cluster.Uniform(workers, perNode, 4, 18.3*cluster.GB, 1.17*cluster.GB)
	rng := rand.New(rand.NewSource(1))
	grid := make([][]*moe.Expert, layers)
	assign := placement.NewAssignment(layers, experts)
	for l := range grid {
		for e := 0; e < experts; e++ {
			ex := moe.NewExpert(moe.ExpertID{Layer: l, Expert: e}, rng, spec.D, spec.Hidden, false)
			ex.AttachLoRA(rng, spec.LoRARank, spec.LoRAAlpha)
			grid[l] = append(grid[l], ex)
			assign.Worker[l][e] = (l*experts + e) % workers
		}
	}
	for _, mode := range []string{"hit", "cold", "nostore"} {
		b.Run(mode, func(b *testing.B) {
			warm := filepath.Join(b.TempDir(), "bases")
			meter := &byteMeter{}
			var bytes, misses int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold := []string{filepath.Join(b.TempDir(), "bases"), filepath.Join(b.TempDir(), "bases")}
				conns := make([]transport.Conn, workers)
				var wg sync.WaitGroup
				for n := range conns {
					cfg := DefaultWorkerConfig()
					switch node := topo.Devices[n].Node; {
					case mode == "nostore":
						cfg.BaseDir = ""
					case mode == "cold" && node != topo.MasterNode:
						cfg.BaseDir = cold[node-1]
					default:
						cfg.BaseDir = warm
					}
					bw := topo.InterBW
					if topo.Devices[n].Node == topo.MasterNode {
						bw = topo.IntraBW
					}
					master, workerEnd := transport.Pipe()
					conns[n] = &slowLink{Conn: master, bytesPerSec: bw / 192, meter: meter}
					wg.Add(1)
					go func(w *Worker) {
						defer wg.Done()
						_ = w.Serve(workerEnd)
					}(NewWorker(n, cfg))
				}
				x := NewExecutor(conns, assign)
				x.BaseDir = warm
				if mode == "nostore" {
					x.BaseDir = ""
				}
				x.Counters = obs.NewCounters(make([]bool, workers))
				if mode != "nostore" {
					x.SetBase(grid)
					for _, row := range grid { // the master's host holds the bases
						for _, ex := range row {
							x.storeBase(x.base[ex.ID])
						}
					}
				}
				sent := meter.n.Load()
				b.StartTimer()
				if err := x.Distribute(grid, spec); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bytes += meter.n.Load() - sent
				misses += x.Counters.Get(obs.BaseMisses)
				if err := x.Shutdown(); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				b.StartTimer()
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "wire_bytes/op")
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
		})
	}
}
