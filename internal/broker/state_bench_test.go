package broker

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/transport"
)

// The two rounds that move expert state, at stepbench churn's geometry
// (2 layers x 8 experts, d=128, h=352, LoRA r=8, AdamW, two workers) over
// loopback TCP, with the bytes they put on the wire: what `make
// bench-wire` records beside the codec's own numbers.

// byteMeter sums the encoded size of every frame, both directions.
type byteMeter struct{ n atomic.Int64 }

func (m *byteMeter) ConnSend(bytes int) { m.n.Add(int64(bytes)) }
func (m *byteMeter) ConnRecv(bytes int) { m.n.Add(int64(bytes)) }

// churnDeployment distributes the grid over two TCP workers and steps the
// optimizer once, so every expert has AdamW moments to snapshot.
func churnDeployment(b *testing.B) (*Executor, *byteMeter) {
	b.Helper()
	const layers, experts, d, hidden, rank, workers = 2, 8, 128, 352, 8, 2
	rng := rand.New(rand.NewSource(1))
	grid := make([][]*moe.Expert, layers)
	assign := placement.NewAssignment(layers, experts)
	for l := range grid {
		for e := 0; e < experts; e++ {
			ex := moe.NewExpert(moe.ExpertID{Layer: l, Expert: e}, rng, d, hidden, false)
			ex.AttachLoRA(rng, rank, 16)
			grid[l] = append(grid[l], ex)
			assign.Worker[l][e] = e % workers
		}
	}
	meter := &byteMeter{}
	conns := make([]transport.Conn, workers)
	served := make(chan error, workers)
	for n := range conns {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func(w *Worker) {
			defer l.Close()
			conn, err := l.Accept()
			if err != nil {
				served <- err
				return
			}
			served <- w.Serve(conn)
		}(NewWorker(n, DefaultWorkerConfig()))
		tcp, err := transport.Dial(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		conns[n] = transport.WithMeter(tcp, meter)
	}
	exec := NewExecutor(conns, assign)
	b.Cleanup(func() {
		if err := exec.Shutdown(); err != nil {
			b.Error(err)
		}
		for range conns {
			if err := <-served; err != nil {
				b.Error(err)
			}
		}
		for _, c := range conns {
			_ = c.Close()
		}
	})
	if err := exec.Distribute(grid, ExpertSpec{D: d, Hidden: hidden, LoRARank: rank, LoRAAlpha: 16}); err != nil {
		b.Fatal(err)
	}
	if err := exec.Step(); err != nil {
		b.Fatal(err)
	}
	return exec, meter
}

// BenchmarkSnapshotExperts is one step-boundary snapshot of all 16
// experts: Supervisor.Checkpoint's round.
func BenchmarkSnapshotExperts(b *testing.B) {
	exec, meter := churnDeployment(b)
	start := meter.n.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.SnapshotExperts(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(meter.n.Load()-start)/float64(b.N), "wire_bytes/op")
}

// BenchmarkMigrate is one expert moved between the two workers: snapshot
// the source, install on the destination, release the source.
func BenchmarkMigrate(b *testing.B) {
	exec, meter := churnDeployment(b)
	start := meter.n.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec.migrate(0, 0, 1-exec.Assignment().Worker[0][0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(meter.n.Load()-start)/float64(b.N), "wire_bytes/op")
}
