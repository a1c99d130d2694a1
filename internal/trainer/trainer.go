// Package trainer implements the training loops of the reproduction:
//
//   - Pretrain: full-parameter training with a trainable gate and the
//     load-balancing auxiliary loss — the phase that manufactures the
//     "pre-trained MoE checkpoint" whose router exhibits expert locality
//     (the paper downloads such a checkpoint; we have to create it);
//   - Profile: the paper's pre-fine-tuning measurement pass ("prior to
//     fine-tuning, we pass the dataset through the model to generate a
//     probability matrix P");
//   - Finetuner: the LoRA fine-tuning loop of §V-A — backbone frozen,
//     gate frozen, adapters on every other linear layer, AdamW — usable
//     with local experts or with experts detached behind VELA's broker.
package trainer

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/obs"
)

// PretrainConfig controls checkpoint manufacturing.
type PretrainConfig struct {
	Steps   int
	Batch   int
	SeqLen  int
	LR      float64
	AuxCoef float64
	Seed    int64
}

// DefaultPretrain returns settings that give a TinyMistral-scale model a
// usefully specialized router in under a minute of CPU time.
func DefaultPretrain() PretrainConfig {
	return PretrainConfig{Steps: 300, Batch: 4, SeqLen: 48, LR: 3e-3, AuxCoef: 2e-2, Seed: 20}
}

// pretrain trains model and experts jointly on the corpus (gate
// trainable, aux loss active) and returns the per-step loss series.
func pretrain(m *moe.Model, exec *moe.LocalExecutor, corpus *data.Corpus, cfg PretrainConfig) (*obs.Series, error) {
	m.SetAuxLossCoef(cfg.AuxCoef)
	defer m.SetAuxLossCoef(0)
	params := append(m.Params(), exec.Params()...)
	opt := nn.NewAdamW(params, nn.AdamWConfig{LR: cfg.LR, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8})
	b := data.NewBatcher(corpus, cfg.Batch, cfg.SeqLen, cfg.Seed)
	losses := &obs.Series{Name: "pretrain_loss"}
	ce := nn.NewLoss()
	for step := 0; step < cfg.Steps; step++ {
		ids, targets := b.Next()
		nn.ZeroGrads(params)
		logits, err := m.Forward(ids, cfg.Batch, cfg.SeqLen)
		if err != nil {
			return nil, fmt.Errorf("trainer: pretrain step %d: %w", step, err)
		}
		loss, dl := ce.CrossEntropy(logits, targets)
		losses.Append(loss)
		if err := m.Backward(dl); err != nil {
			return nil, fmt.Errorf("trainer: pretrain step %d backward: %w", step, err)
		}
		opt.Step()
	}
	return losses, nil
}

// BuildPretrained constructs a model + expert grid and pre-trains them on
// the mixed-domain corpus, returning a "pre-trained checkpoint" in the
// paper's sense. Deterministic for a fixed seed.
func BuildPretrained(cfg moe.Config, corpusSize int, pcfg PretrainConfig) (*moe.Model, [][]*moe.Expert, error) {
	rng := rand.New(rand.NewSource(pcfg.Seed))
	m := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	exec := m.BindLocalExperts(grid)
	if _, err := pretrain(m, exec, data.Pretrain(corpusSize), pcfg); err != nil {
		return nil, nil, err
	}
	return m, grid, nil
}

// Profile runs the corpus through the model in inference mode and returns
// the measured access statistics — the probability matrix the
// locality-aware placement consumes. The model's executor must be bound.
func Profile(m *moe.Model, corpus *data.Corpus, batches, batch, seqLen int, seed int64) (*moe.AccessStats, error) {
	stats := moe.NewAccessStats(m.Cfg.Layers, m.Cfg.Experts)
	m.SetStats(stats)
	defer m.SetStats(nil)
	b := data.NewBatcher(corpus, batch, seqLen, seed)
	for i := 0; i < batches; i++ {
		ids, _ := b.Next()
		if _, err := m.Forward(ids, batch, seqLen); err != nil {
			return nil, fmt.Errorf("trainer: profiling batch %d: %w", i, err)
		}
	}
	return stats, nil
}

// LoRAConfig is the paper's adapter configuration (§V-A: r=8, α=16).
type LoRAConfig struct {
	Rank  int
	Alpha float64
	Seed  int64
}

// PaperLoRA returns r=8, α=16.
func PaperLoRA() LoRAConfig { return LoRAConfig{Rank: 8, Alpha: 16, Seed: 21} }

// PrepareForFinetune freezes every pre-trained parameter (backbone and
// experts) and attaches LoRA adapters to all linear layers except the
// gates, exactly as §V-A prescribes.
func PrepareForFinetune(m *moe.Model, grid [][]*moe.Expert, lora LoRAConfig) {
	m.Freeze()
	for _, row := range grid {
		for _, e := range row {
			for _, p := range e.Params() {
				p.Freeze()
			}
		}
	}
	rng := rand.New(rand.NewSource(lora.Seed))
	m.AttachLoRA(rng, lora.Rank, lora.Alpha)
	for _, row := range grid {
		for _, e := range row {
			e.AttachLoRA(rng, lora.Rank, lora.Alpha)
		}
	}
}

// Hook observes fine-tuning progress; stats is the cumulative access
// statistics when collection is enabled, else nil.
type Hook func(step int, loss float64)

// BatchSource yields fine-tuning batches. data.Batcher implements it; a
// FixedBatcher repeats one batch (useful for controlled comparisons).
type BatchSource interface {
	// Next returns the next batch: flattened ids and next-token targets.
	Next() (ids, targets []int)
	// Shape returns the batch geometry.
	Shape() (batch, seqLen int)
}

// FixedBatcher repeats a single constant batch.
type FixedBatcher struct {
	ids, targets  []int
	batch, seqLen int
}

// NewFixedBatcher wraps a constant batch.
func NewFixedBatcher(ids, targets []int, batch, seqLen int) *FixedBatcher {
	if len(ids) != batch*seqLen || len(targets) != batch*seqLen {
		panic("trainer: fixed batch size mismatch")
	}
	return &FixedBatcher{ids: ids, targets: targets, batch: batch, seqLen: seqLen}
}

// Next implements BatchSource.
func (f *FixedBatcher) Next() ([]int, []int) { return f.ids, f.targets }

// Shape implements BatchSource.
func (f *FixedBatcher) Shape() (int, int) { return f.batch, f.seqLen }

// Finetuner drives LoRA fine-tuning. ExpertZero/ExpertStep abstract where
// the expert optimizer lives: in-process (local executor) or on the
// Expert Manager workers (broker executor).
type Finetuner struct {
	Model    *moe.Model
	Backbone []*nn.Param // trainable backbone (LoRA) parameters
	Opt      nn.Optimizer
	Batcher  BatchSource

	// ExpertZero clears expert gradients wherever the experts live.
	ExpertZero func() error
	// ExpertStep applies the expert optimizer wherever the experts live.
	ExpertStep func() error

	// Recover, when non-nil, is consulted after an attempt at step s fails,
	// in the step or in its boundary (OnStep): returning nil means the
	// state of boundary s−1 is back — batch-source position included — and
	// s is re-driven from it, re-drawing its batch; returning an error
	// aborts the run. core.System wires its one restore here.
	Recover func(step int, err error) error
	// OnStep, when non-nil, is the step boundary: it runs after each
	// successful step, and the step is complete once it returns nil. Any
	// other error is a failure of the step, handled like one; an error
	// wrapping ErrStop ends the run after the completed step instead.
	OnStep func(step int) error

	// StartStep is the first step Run drives — 0 for a fresh run, the
	// checkpointed completed-step count for a resumed one. Run(steps)
	// always means "until `steps` total steps have completed", so a run
	// resumed from step k drives steps [k, steps) and the Losses series
	// (preloaded by the restore) ends bit-identical to an uninterrupted
	// run's.
	StartStep int

	// Obs, when non-nil, receives step boundaries and per-phase spans
	// (forward, backward, optimizer; the broker records its own exchange
	// spans). Each attempt folds its routing into the P-drift monitor
	// before the boundary reads it; a step is counted (EndStep) once
	// complete.
	Obs *obs.Handle

	// Losses accumulates the per-step loss.
	Losses obs.Series

	// loss holds the loss gradient's step-persistent buffer, made by the
	// first step.
	loss *nn.Loss
}

// DefaultMaxStepRetries bounds how many times Run re-drives one step
// through Recover before the run aborts.
const DefaultMaxStepRetries = 2

// ErrStop, wrapped in an OnStep error, is a deliberate stop, not a
// failure: Run ends after the step whose boundary returned it, and
// returns the error without consulting Recover.
var ErrStop = errors.New("trainer: run stopped")

// NewLocalFinetuner wires a fine-tuner whose experts run in-process.
func NewLocalFinetuner(m *moe.Model, exec *moe.LocalExecutor, b *data.Batcher) *Finetuner {
	backbone := nn.CollectTrainable(m.Params())
	expertParams := nn.CollectTrainable(exec.Params())
	backOpt := nn.NewAdamW(backbone, nn.PaperAdamWConfig())
	expOpt := nn.NewAdamW(expertParams, nn.PaperAdamWConfig())
	return &Finetuner{
		Model:    m,
		Backbone: backbone,
		Opt:      backOpt,
		Batcher:  b,
		ExpertZero: func() error {
			expOpt.ZeroGrads()
			return nil
		},
		ExpertStep: func() error {
			expOpt.Step()
			return nil
		},
	}
}

// Step runs one fine-tuning step, recording and returning its loss, and
// counts it on Obs; Run adds the step's boundary and its retries.
func (f *Finetuner) Step() (float64, error) {
	loss, err := f.attempt()
	if err == nil {
		f.Obs.EndStep()
	}
	return loss, err
}

// attempt draws a batch and drives one step on it, recording its loss and
// folding its routing into the drift estimate the boundary reads. It
// counts nothing: a step counts once it is complete.
func (f *Finetuner) attempt() (float64, error) {
	ids, targets := f.Batcher.Next()
	f.Obs.StartStep(f.Losses.Len())
	loss, err := f.step(ids, targets)
	if err != nil {
		return 0, err
	}
	if f.Obs != nil {
		f.Obs.Drift.EndStep()
	}
	f.Losses.Append(loss)
	return loss, nil
}

// step drives one full step on a fixed batch: gradients are zeroed
// first, then forward, backward and both optimizers.
func (f *Finetuner) step(ids, targets []int) (float64, error) {
	nn.ZeroGrads(f.Backbone)
	if err := f.ExpertZero(); err != nil {
		return 0, fmt.Errorf("trainer: expert zero-grad: %w", err)
	}
	batch, seqLen := f.Batcher.Shape()
	fsp := f.Obs.Begin(obs.PhaseForward)
	logits, err := f.Model.Forward(ids, batch, seqLen)
	fsp.End()
	if err != nil {
		return 0, fmt.Errorf("trainer: forward: %w", err)
	}
	if f.loss == nil {
		f.loss = nn.NewLoss()
	}
	loss, dl := f.loss.CrossEntropy(logits, targets)
	bsp := f.Obs.Begin(obs.PhaseBackward)
	err = f.Model.Backward(dl)
	bsp.End()
	if err != nil {
		return 0, fmt.Errorf("trainer: backward: %w", err)
	}
	osp := f.Obs.Begin(obs.PhaseOptimizer)
	defer osp.End()
	if err := f.ExpertStep(); err != nil {
		return 0, fmt.Errorf("trainer: expert step: %w", err)
	}
	f.Opt.Step()
	return loss, nil
}

// Run executes until `steps` total steps have completed, starting from
// StartStep (nonzero when resuming from a run-level checkpoint). A step
// is complete once its boundary has run; Obs then counts it and hook (if
// non-nil) sees it, exactly once. A failed attempt is handed to Recover,
// up to DefaultMaxStepRetries times per step, and a retried one leaves no
// loss behind; without Recover the failure ends the run.
func (f *Finetuner) Run(steps int, hook Hook) error {
	for s, retries := f.StartStep, 0; s < steps; {
		done := f.Losses.Len()
		loss, err := f.attempt()
		if err == nil && f.OnStep != nil {
			if err = f.OnStep(s); err != nil {
				err = fmt.Errorf("step boundary: %w", err)
			}
		}
		if err == nil || errors.Is(err, ErrStop) {
			f.Obs.EndStep()
			if hook != nil {
				hook(s, loss)
			}
			if err != nil {
				return fmt.Errorf("trainer: step %d: %w", s, err)
			}
			s, retries = s+1, 0
			continue
		}
		if f.Recover == nil || retries == DefaultMaxStepRetries {
			return fmt.Errorf("trainer: step %d: %w", s, err)
		}
		retries++
		f.Losses.Values = f.Losses.Values[:done]
		if rerr := f.Recover(s, err); rerr != nil {
			return fmt.Errorf("trainer: step %d: recovering from (%v): %w", s, err, rerr)
		}
	}
	return nil
}
