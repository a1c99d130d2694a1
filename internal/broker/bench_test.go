package broker

import (
	"math/rand"
	"testing"

	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// BenchmarkBrokeredExchange measures one forward scatter/gather round
// through the in-process broker: the per-layer overhead VELA's framework
// adds over local execution.
func BenchmarkBrokeredExchange(b *testing.B) {
	cfg := moe.Config{Vocab: 24, D: 32, Heads: 4, Hidden: 64, Layers: 1, Experts: 8, TopK: 2}
	_, grid := buildFinetuneSetup(cfg, 1)
	dep := StartLocalWorkers(4, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 4))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		b.Fatal(err)
	}
	batches := make(map[int]*tensor.Tensor, cfg.Experts)
	for e := 0; e < cfg.Experts; e++ {
		batches[e] = tensor.Full(0.1, 32, cfg.D)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ForwardExperts(0, batches); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = exec.Shutdown()
	_ = dep.Wait()
}

// benchManyExpertsPerWorker drives a scatter/gather round with many
// experts stacked on few workers — the scenario where turnMulti's
// fan-out matters. parallelism is the tensor engine's degree, which is
// the fan-out's width (1 = serial, 0 = GOMAXPROCS).
func benchManyExpertsPerWorker(b *testing.B, parallelism int) {
	tensor.SetParallelism(parallelism)
	b.Cleanup(func() { tensor.SetParallelism(0) })
	const (
		workers = 2
		experts = 32 // 16 experts per worker
		d       = 64
		hidden  = 128
		rows    = 64
	)
	rng := rand.New(rand.NewSource(9))
	grid := [][]*moe.Expert{make([]*moe.Expert, experts)}
	assign := placement.NewAssignment(1, experts)
	for e := 0; e < experts; e++ {
		ex := moe.NewExpert(moe.ExpertID{Layer: 0, Expert: e}, rng, d, hidden, false)
		ex.AttachLoRA(rng, 2, 4)
		grid[0][e] = ex
		assign.Worker[0][e] = e % workers
	}
	dep := StartLocalWorkers(workers, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, assign)
	if err := exec.Distribute(grid, ExpertSpec{D: d, Hidden: hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		b.Fatal(err)
	}
	batches := make(map[int]*tensor.Tensor, experts)
	for e := 0; e < experts; e++ {
		batches[e] = tensor.Full(0.1, rows, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ForwardExperts(0, batches); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*experts*rows)/b.Elapsed().Seconds(), "tokens/s")
	_ = exec.Shutdown()
	_ = dep.Wait()
}

// BenchmarkManyExpertsPerWorkerSerial pins the fan-out to one
// goroutine: each frame's experts compute one after another (the
// throughput baseline for the fan-out win).
func BenchmarkManyExpertsPerWorkerSerial(b *testing.B) { benchManyExpertsPerWorker(b, 1) }

// BenchmarkManyExpertsPerWorkerPooled lets the experts of one frame
// compute concurrently; the tokens/s ratio over the Serial variant is
// the fan-out win.
func BenchmarkManyExpertsPerWorkerPooled(b *testing.B) { benchManyExpertsPerWorker(b, 0) }

// BenchmarkBrokeredFinetuneStep measures a full fine-tuning step through
// the broker (forward, backward, both optimizers).
func BenchmarkBrokeredFinetuneStep(b *testing.B) {
	cfg := testConfig()
	m, grid := buildFinetuneSetup(cfg, 2)
	dep := StartLocalWorkers(3, DefaultWorkerConfig())
	exec := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 3))
	if err := exec.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
		b.Fatal(err)
	}
	m.SetExecutor(exec)
	backbone := nn.CollectTrainable(m.Params())
	opt := nn.NewAdamW(backbone, nn.PaperAdamWConfig())
	ids := make([]int, 2*8)
	targets := make([]int, 2*8)
	for i := range ids {
		ids[i] = i % cfg.Vocab
		targets[i] = (i + 1) % cfg.Vocab
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(backbone)
		if err := exec.ZeroGrads(); err != nil {
			b.Fatal(err)
		}
		logits, err := m.Forward(ids, 2, 8)
		if err != nil {
			b.Fatal(err)
		}
		_, dl := nn.NewLoss().CrossEntropy(logits, targets)
		if err := m.Backward(dl); err != nil {
			b.Fatal(err)
		}
		opt.Step()
		if err := exec.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = exec.Shutdown()
	_ = dep.Wait()
}
