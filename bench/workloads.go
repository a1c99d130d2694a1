package bench

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/wire"
)

// Run shape, the same for every workload. The values are pinned here and
// never derived from the machine.
const (
	// WarmupSteps are driven and discarded before timing starts.
	WarmupSteps = 5
	// DefaultTimedSteps is the timed-run length when neither -seconds nor
	// -steps is given: p90 then has ten samples beyond it.
	DefaultTimedSteps = 100
	// DefaultTracedSteps is the traced-run length: half the steps record,
	// half do not (see Run).
	DefaultTracedSteps = 60
	// SetupReps is how often a timed run sets the system up; setup_s is
	// the median.
	SetupReps = 3
	// ProfileBatches is the length of the locality-profiling pass.
	ProfileBatches = 4
	// RefSteps is how many leading steps of the loss series loss_check
	// recomputes on the reference executor.
	RefSteps = 25
	// LinkScale divides cluster's 18.3 GB/s intra-node and 1.17 GB/s
	// inter-node bandwidths on the shaped workloads. This CPU runs the
	// step's arithmetic about two orders of magnitude slower than the
	// paper's GPUs, so the link is slowed alike to keep the paper's
	// communication share of a step; see README.md for the calibration.
	LinkScale = 192
	// CheckpointSeed generates the model and expert weights of every run.
	// A run's -seed varies the LoRA initialization, the batch stream and
	// the profiling sample, not the checkpoint: the gate's routing skew —
	// and with it the load balance that sets the step time — differs from
	// one random checkpoint to the next by more than any regression bound
	// (step_ms_p50 spread over ten checkpoint seeds: 9% on expert_bound,
	// 13% on shaped_sequential), and a fine-tuning job does not draw a new
	// pre-trained model per run either.
	CheckpointSeed = 1
	// Churn cadence: expert snapshot + run checkpoint every CheckpointEvery
	// steps, a rebalance between two fixed layouts every RebalanceEvery.
	CheckpointEvery = 5
	RebalanceEvery  = 10

	loraRank     = 8
	loraAlpha    = 16
	corpusTokens = 20000
)

// Workload pins one scenario of the step benchmark.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	Cfg moe.Config
	// Batch × SeqLen tokens enter every step.
	Batch, SeqLen int
	// Workers is the size of the Expert Manager pool; 0 runs the experts
	// in the training process through moe.LocalExecutor, with no broker.
	Workers, DevicesPerNode, Capacity int
	// Encoding is the wire representation of activations and gradients.
	Encoding wire.Encoding
	// Shaped puts every master-side conn behind a Shaped link.
	Shaped bool
	// Strategy places the experts; nil with Workers == 0.
	Strategy placement.Strategy
	// Churn adds the periodic checkpoint and rebalance hook.
	Churn bool
}

// Tokens is the number of tokens per step.
func (w Workload) Tokens() int { return w.Batch * w.SeqLen }

// Brokered reports whether experts live behind the broker.
func (w Workload) Brokered() bool { return w.Workers > 0 }

var (
	// computeCfg: experts as wide as the ISSUE's d=128/h=352 model, so the
	// expert GEMMs own the step.
	computeCfg = moe.Config{Vocab: data.VocabSize, D: 128, Heads: 4, Hidden: 352, Layers: 2, Experts: 8, TopK: 2}
	// commCfg: wide features, thin experts, so bytes and link wait own the
	// step and the expert GEMMs almost none of it.
	commCfg = moe.Config{Vocab: data.VocabSize, D: 256, Heads: 4, Hidden: 64, Layers: 2, Experts: 8, TopK: 2}
)

// Workloads is the benchmark's scenario list; names are stable.
var Workloads = []Workload{
	{
		Name: "local_baseline",
		Why:  "Single-process run without broker, wire or transport: only tensor/nn/moe changes may move it; its loss series is the oracle.",
		Cfg:  computeCfg, Batch: 4, SeqLen: 32,
	},
	{
		Name: "expert_bound",
		Why:  "Same model on 2 TCP workers, fp64, raw loopback: expert GEMM owns the step; minus local_baseline it is the framework's overhead.",
		Cfg:  computeCfg, Batch: 4, SeqLen: 32,
		Workers: 2, DevicesPerNode: 2, Capacity: 8,
		Encoding: wire.EncFP64, Strategy: placement.Sequential{},
	},
	{
		Name: "shaped_sequential",
		Why:  "Wide features, thin experts, 6 workers on 3 nodes, fp16 over a shaped link, Sequential placement: bytes and link wait own the step.",
		Cfg:  commCfg, Batch: 4, SeqLen: 32,
		Workers: 6, DevicesPerNode: 2, Capacity: 4,
		Encoding: wire.EncFP16, Shaped: true, Strategy: placement.Sequential{},
	},
	{
		Name: "shaped_locality",
		Why:  "Same inputs as shaped_sequential, only the strategy is LocalityLP: reproduces the paper's Fig. 5/6 ratios from the runtime.",
		Cfg:  commCfg, Batch: 4, SeqLen: 32,
		Workers: 6, DevicesPerNode: 2, Capacity: 4,
		Encoding: wire.EncFP16, Shaped: true, Strategy: placement.LocalityLP{},
	},
	{
		Name: "churn",
		Why:  "expert_bound plus a snapshot and fsynced run checkpoint every 5 steps and a 4-expert rebalance every 10: bulk fp64 state frames beside activations.",
		Cfg:  computeCfg, Batch: 4, SeqLen: 32,
		Workers: 2, DevicesPerNode: 2, Capacity: 8,
		Encoding: wire.EncFP64, Strategy: placement.Sequential{}, Churn: true,
	},
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}
