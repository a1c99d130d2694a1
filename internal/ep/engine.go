package ep

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/moe"
	"repro/internal/nn"
)

// Engine is a complete in-process expert-parallelism training job: R
// ranks with replicated backbones, sharded experts, synchronized
// all-to-all token exchange, and gradient all-reduce — the conventional
// baseline VELA is measured against, runnable for real.
type Engine struct {
	Ranks  int
	Group  *Group
	Models []*moe.Model
	Execs  []*Executor

	reducer   *AllReducer
	backbones [][]*nn.Param // trainable backbone params per rank
	backOpts  []nn.Optimizer
	expOpts   []nn.Optimizer
}

// NewEngine builds an R-rank EP job for the given model geometry: R
// bit-identical backbone replicas (same seed) and one expert grid sharded
// expert e → rank e mod R. All parameters are trainable — the
// from-scratch pre-training regime expert parallelism was designed for
// (the paper's point is precisely that this design is a poor fit for
// fine-tuning).
func NewEngine(cfg moe.Config, ranks int, seed int64) (*Engine, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("ep: ranks must be positive, got %d", ranks)
	}
	e := &Engine{Ranks: ranks, Group: NewGroup(ranks)}
	e.reducer = NewAllReducer(e.Group)

	// One canonical grid, sharded; replicas built from the same seed are
	// bit-identical.
	grid := moe.NewExpertGrid(cfg, rand.New(rand.NewSource(seed+1)), true)
	for r := 0; r < ranks; r++ {
		e.Models = append(e.Models, moe.NewModel(cfg, rand.New(rand.NewSource(seed)), true))
	}
	shards := ShardExperts(grid, ranks)
	for r := 0; r < ranks; r++ {
		x := &Executor{Rank: r, Group: e.Group, Experts: shards[r]}
		e.Execs = append(e.Execs, x)
		e.Models[r].SetExecutor(x)

		backbone := nn.CollectTrainable(e.Models[r].Params())
		e.backbones = append(e.backbones, backbone)
		e.backOpts = append(e.backOpts, nn.NewAdamW(backbone, nn.PaperAdamWConfig()))
		e.expOpts = append(e.expOpts, nn.NewAdamW(nn.CollectTrainable(x.OwnExpertParams()), nn.PaperAdamWConfig()))
	}
	return e, nil
}

// Step runs one synchronous EP training step over the full batch
// (contiguously sharded across ranks) and returns the mean loss. The
// batch size must be divisible by the rank count.
func (e *Engine) Step(ids, targets []int, batch, seqLen int) (float64, error) {
	if batch%e.Ranks != 0 {
		return 0, fmt.Errorf("ep: batch %d not divisible by %d ranks", batch, e.Ranks)
	}
	shardB := batch / e.Ranks
	shardTokens := shardB * seqLen

	losses := make([]float64, e.Ranks)
	errs := make([]error, e.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < e.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := e.Models[r]
			x := e.Execs[r]
			nn.ZeroGrads(e.backbones[r])
			nn.ZeroGrads(x.OwnExpertParams())

			lo := r * shardTokens
			hi := lo + shardTokens
			logits, err := m.Forward(ids[lo:hi], shardB, seqLen)
			if err != nil {
				errs[r] = err
				// Keep the collective alive so peers don't deadlock:
				// a failed forward here is fatal to the whole step, and
				// peers block inside AllToAll. Panic is the honest
				// outcome for a torn collective.
				panic(fmt.Sprintf("ep: rank %d forward: %v", r, err))
			}
			loss, dl := nn.CrossEntropy(logits, targets[lo:hi])
			losses[r] = loss
			if err := m.Backward(dl); err != nil {
				errs[r] = err
				panic(fmt.Sprintf("ep: rank %d backward: %v", r, err))
			}

			// Backbone: all-reduce mean makes every replica's gradient
			// equal to the full-batch gradient.
			e.reducer.ReduceMean(r, e.backbones[r])
			// Experts: the owner already accumulated gradients from every
			// rank's rows at per-shard normalization; dividing by R makes
			// them full-batch gradients.
			for _, p := range nn.CollectTrainable(x.OwnExpertParams()) {
				p.Grad.ScaleInPlace(1 / float64(e.Ranks))
			}

			e.backOpts[r].Step()
			e.expOpts[r].Step()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var mean float64
	for _, l := range losses {
		mean += l
	}
	return mean / float64(e.Ranks), nil
}

// ReplicasInSync verifies that all backbone replicas hold bit-identical
// parameters — the invariant data parallelism must maintain.
func (e *Engine) ReplicasInSync() error {
	ref := e.Models[0].Params()
	for r := 1; r < e.Ranks; r++ {
		ps := e.Models[r].Params()
		if len(ps) != len(ref) {
			return fmt.Errorf("ep: rank %d has %d params, rank 0 has %d", r, len(ps), len(ref))
		}
		for i := range ps {
			for j := range ps[i].Value.Data {
				if math.Float64bits(ps[i].Value.Data[j]) != math.Float64bits(ref[i].Value.Data[j]) {
					return fmt.Errorf("ep: rank %d param %s[%d] diverged", r, ps[i].Name, j)
				}
			}
		}
	}
	return nil
}
