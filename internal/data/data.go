// Package data supplies the fine-tuning corpora of the reproduction.
//
// The paper uses Tiny-Shakespeare (for the TinyMistral measurement study)
// and WikiText / Alpaca (for the Mixtral-scale evaluation). None of those
// are reachable from an offline, stdlib-only build, so this package
// generates deterministic synthetic stand-ins with the properties the
// experiments depend on:
//
//   - each corpus is drawn from a distinct set of topical vocabularies, so
//     a model pre-trained on the mixture develops *specialized experts*,
//     and fine-tuning on a single corpus exhibits the biased, stable
//     expert access the paper calls expert locality;
//   - the text has local structure (templated phrases), so next-token
//     prediction is learnable by a small model;
//   - tokenization is byte-level over printable ASCII (vocab 96),
//     matching moe.TinyMistralConfig.
package data

import (
	"fmt"
	"math/rand"
	"strings"
)

// VocabSize is the tokenizer's vocabulary: printable ASCII (0x20..0x7E)
// plus a newline bucket, remapped to [0, 96).
const VocabSize = 96

// Encode maps text to token ids (byte-level).
func Encode(text string) []int {
	ids := make([]int, len(text))
	for i := 0; i < len(text); i++ {
		ids[i] = tokenOf(text[i])
	}
	return ids
}

func tokenOf(b byte) int {
	if b == '\n' {
		return 95
	}
	if b < 0x20 || b > 0x7E {
		return 0 // out-of-range bytes collapse to space
	}
	return int(b - 0x20)
}

// Decode maps token ids back to text (best effort; used by examples).
func Decode(ids []int) string {
	var sb strings.Builder
	for _, id := range ids {
		switch {
		case id == 95:
			sb.WriteByte('\n')
		case id >= 0 && id < 95:
			sb.WriteByte(byte(id + 0x20))
		default:
			sb.WriteByte('?')
		}
	}
	return sb.String()
}

// Corpus is a tokenized dataset.
type Corpus struct {
	Name   string
	Tokens []int
}

// wordBank is one topical vocabulary; corpora mix banks in different
// proportions, which is what drives expert specialization.
type wordBank struct {
	words []string
}

var (
	bardBank = wordBank{words: []string{
		"thou", "thee", "hath", "doth", "wherefore", "hark", "prithee",
		"king", "crown", "dagger", "ghost", "throne", "sonnet", "verily",
		"alas", "forsooth", "noble", "villain", "swear", "honour",
	}}
	wikiBank = wordBank{words: []string{
		"the", "system", "century", "region", "population", "university",
		"founded", "located", "government", "history", "science", "theory",
		"river", "industry", "language", "empire", "treaty", "economy",
		"museum", "province",
	}}
	chatBank = wordBank{words: []string{
		"please", "explain", "write", "list", "summarize", "question",
		"answer", "example", "steps", "response", "instruction", "task",
		"describe", "compare", "translate", "helpful", "assistant", "user",
		"input", "output",
	}}
)

// sentence emits one templated sentence from a bank.
func sentence(rng *rand.Rand, bank wordBank, sb *strings.Builder) {
	n := 4 + rng.Intn(6)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(bank.words[rng.Intn(len(bank.words))])
	}
	sb.WriteString(".\n")
}

// generate builds a corpus of approximately size tokens from a mixture of
// banks with the given weights.
func generate(name string, seed int64, size int, banks []wordBank, weights []float64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, w := range weights {
		total += w
	}
	var sb strings.Builder
	for sb.Len() < size {
		r := rng.Float64() * total
		idx := 0
		for i, w := range weights {
			if r < w {
				idx = i
				break
			}
			r -= w
		}
		sentence(rng, banks[idx], &sb)
	}
	return &Corpus{Name: name, Tokens: Encode(sb.String()[:size])}
}

// Shakespeare returns the Tiny-Shakespeare stand-in: almost entirely
// bard-bank text. Used for the TinyMistral locality measurements
// (Fig. 3).
func Shakespeare(size int) *Corpus {
	return generate("shakespeare", 11, size, []wordBank{bardBank, wikiBank}, []float64{0.95, 0.05})
}

// WikiText returns the WikiText stand-in: encyclopedic text dominated by
// one topical bank — the concentrated-access fine-tuning domain.
func WikiText(size int) *Corpus {
	return generate("wikitext", 12, size, []wordBank{wikiBank, chatBank}, []float64{0.92, 0.08})
}

// Alpaca returns the Alpaca stand-in: instruction-style dialogue mixing
// conversational and factual vocabulary — the diffuse-access domain.
func Alpaca(size int) *Corpus {
	return generate("alpaca", 13, size, []wordBank{chatBank, wikiBank, bardBank}, []float64{0.55, 0.3, 0.15})
}

// Pretrain returns the pre-training mixture: all banks in comparable
// proportion, the regime in which load-balanced training makes every
// expert useful somewhere.
func Pretrain(size int) *Corpus {
	return generate("pretrain", 14, size, []wordBank{bardBank, wikiBank, chatBank}, []float64{1, 1, 1})
}

// Batcher cuts a corpus into (input, target) next-token windows.
type Batcher struct {
	corpus *Corpus
	rng    *rand.Rand
	seed   int64
	drawn  int64 // batches served since construction or last SeekTo
	Batch  int
	SeqLen int
}

// NewBatcher builds a batcher with its own deterministic sampling stream.
func NewBatcher(c *Corpus, batch, seqLen int, seed int64) *Batcher {
	if len(c.Tokens) < seqLen+2 {
		panic("data: corpus too small for sequence length")
	}
	return &Batcher{corpus: c, rng: rand.New(rand.NewSource(seed)), seed: seed, Batch: batch, SeqLen: seqLen}
}

// Shape returns the batch geometry (implements trainer.BatchSource).
func (b *Batcher) Shape() (batch, seqLen int) { return b.Batch, b.SeqLen }

// Next returns the next batch: ids and next-token targets, each
// batch·seqLen long, flattened row-major.
func (b *Batcher) Next() (ids, targets []int) {
	ids = make([]int, 0, b.Batch*b.SeqLen)
	targets = make([]int, 0, b.Batch*b.SeqLen)
	for i := 0; i < b.Batch; i++ {
		start := b.rng.Intn(len(b.corpus.Tokens) - b.SeqLen - 1)
		ids = append(ids, b.corpus.Tokens[start:start+b.SeqLen]...)
		targets = append(targets, b.corpus.Tokens[start+1:start+b.SeqLen+1]...)
	}
	b.drawn++
	return ids, targets
}

// Cursor returns the batcher's replayable position: the number of
// batches drawn from the sampling stream. Run-level checkpoints persist
// it so a resumed run's batch sequence is bit-identical to an
// uninterrupted one.
func (b *Batcher) Cursor() []int64 { return []int64{b.drawn} }

// SeekTo rewinds the sampling stream to a cursor from Cursor by
// rebuilding the RNG from the seed and replaying the draws — cheap
// (one Intn per sampled window, no token copies) and exact.
func (b *Batcher) SeekTo(cur []int64) error {
	if len(cur) != 1 || cur[0] < 0 {
		return fmt.Errorf("data: bad batcher cursor %v", cur)
	}
	b.rng = rand.New(rand.NewSource(b.seed))
	span := len(b.corpus.Tokens) - b.SeqLen - 1
	for i := int64(0); i < cur[0]; i++ {
		for j := 0; j < b.Batch; j++ {
			b.rng.Intn(span)
		}
	}
	b.drawn = cur[0]
	return nil
}

// CursorSource is a Source whose position can be checkpointed and
// restored. Batcher and SwitchBatcher implement it.
type CursorSource interface {
	Source
	Cursor() []int64
	SeekTo([]int64) error
}

// Source is the batch interface SwitchBatcher composes over; it matches
// trainer.BatchSource structurally (data cannot import trainer).
type Source interface {
	Next() (ids, targets []int)
	Shape() (batch, seqLen int)
}

// SwitchBatcher serves batches from one source and splices to another
// after a fixed number of batches — the mid-run distribution shift
// (e.g. WikiText → Alpaca) that core's TestShiftReplacesOnce uses to
// exercise the drift-triggered re-placement controller.
type SwitchBatcher struct {
	before, after Source
	switchAt      int
	served        int
}

// NewSwitchBatcher splices from `before` to `after` once switchAt batches
// have been served. Both sources must share one batch geometry.
func NewSwitchBatcher(before, after Source, switchAt int) *SwitchBatcher {
	b1, s1 := before.Shape()
	b2, s2 := after.Shape()
	if b1 != b2 || s1 != s2 {
		panic("data: switch batcher sources disagree on batch geometry")
	}
	return &SwitchBatcher{before: before, after: after, switchAt: switchAt}
}

// Shape implements the batch-source interface.
func (s *SwitchBatcher) Shape() (batch, seqLen int) { return s.before.Shape() }

// Next serves the next batch, splicing to the after-source once switchAt
// batches have been drawn.
func (s *SwitchBatcher) Next() (ids, targets []int) {
	src := s.before
	if s.served >= s.switchAt {
		src = s.after
	}
	s.served++
	return src.Next()
}

// Switched reports whether the splice has happened.
func (s *SwitchBatcher) Switched() bool { return s.served > s.switchAt }

// Cursor returns the splice position followed by both sources' cursors
// ([served, len(beforeCursor), beforeCursor..., afterCursor...]), or nil
// when either source cannot report one.
func (s *SwitchBatcher) Cursor() []int64 {
	bc, ok := s.before.(CursorSource)
	if !ok {
		return nil
	}
	ac, ok := s.after.(CursorSource)
	if !ok {
		return nil
	}
	b, a := bc.Cursor(), ac.Cursor()
	out := make([]int64, 0, 2+len(b)+len(a))
	out = append(out, int64(s.served), int64(len(b)))
	out = append(out, b...)
	return append(out, a...)
}

// SeekTo restores a cursor from Cursor: the splice position and both
// underlying sources' positions.
func (s *SwitchBatcher) SeekTo(cur []int64) error {
	if len(cur) < 2 || cur[0] < 0 || cur[1] < 0 || int64(len(cur)-2) < cur[1] {
		return fmt.Errorf("data: bad switch-batcher cursor %v", cur)
	}
	bc, ok := s.before.(CursorSource)
	if !ok {
		return fmt.Errorf("data: switch-batcher before-source is not seekable")
	}
	ac, ok := s.after.(CursorSource)
	if !ok {
		return fmt.Errorf("data: switch-batcher after-source is not seekable")
	}
	nb := int(cur[1])
	if err := bc.SeekTo(cur[2 : 2+nb]); err != nil {
		return err
	}
	if err := ac.SeekTo(cur[2+nb:]); err != nil {
		return err
	}
	s.served = int(cur[0])
	return nil
}
