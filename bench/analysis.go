package bench

import "math"

// StepBudget is one traced step, decomposed. All times are milliseconds.
// The step telescopes as
//
//	Step = Next + Backbone + Exchange + LocalExperts + ExpertOpt + BackboneOpt
//
// and every exchange, on the worker whose reply arrived last, as
//
//	Exchange = MasterSelf + SendWire + WorkerBusy + ReplyWire.
//
// Backbone and MasterSelf are self times, computed from the gaps the
// child spans leave in their parent, not by subtraction; the residuals
// therefore show spans that overlap, escape their parent or lack a
// frame pair.
type StepBudget struct {
	Step, Next, Backbone, LocalExperts   float64
	ExchangeFwd, ExchangeBwd             float64
	ExpertOpt, BackboneOpt               float64
	MasterSelf, SendWire, WorkerBusy     float64
	ReplyWire, ShapedWait, StragglerGap  float64
	WorkerIdleShare                      float64
	ExchangeCalls                        int
	StepResidualPct, ExchangeResidualPct float64
}

const nsPerMs = 1e6

// Budgets decomposes every recorded step from firstStep on.
func (r *Recorder) Budgets(firstStep, workers int) []StepBudget {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int) // parent span → child spans, in start order
	for id, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], id)
		}
	}
	frames := make(map[int][]*frame) // parent span → complete frame pairs
	for _, f := range r.frames {
		if f.complete() {
			frames[f.parent] = append(frames[f.parent], f)
		}
	}
	var out []StepBudget
	for id, s := range r.spans {
		if s.Name != spanStep || s.Step < firstStep || s.End == 0 {
			continue
		}
		out = append(out, r.budget(id, children, frames, workers))
	}
	return out
}

func (r *Recorder) budget(stepID int, children map[int][]int, frames map[int][]*frame, workers int) StepBudget {
	step := r.spans[stepID]
	b := StepBudget{Step: float64(step.End-step.Start) / nsPerMs}
	var covered, exchange, exchangeParts, busyAll float64
	cursor := step.Start
	var gaps int64
	for _, id := range children[stepID] {
		c := r.spans[id]
		d := float64(c.End-c.Start) / nsPerMs
		covered += d
		if c.Start > cursor {
			gaps += c.Start - cursor
		}
		if c.End > cursor {
			cursor = c.End
		}
		switch c.Name {
		case spanNext:
			b.Next += d
		case spanLocalFwd, spanLocalBwd:
			b.LocalExperts += d
		case spanExpertOpt:
			b.ExpertOpt += d
			for _, f := range frames[id] {
				busyAll += float64(f.workerSend-f.workerRecv) / nsPerMs
			}
		case spanBackboneOpt:
			b.BackboneOpt += d
		case spanExchangeFwd, spanExchangeBwd:
			if c.Name == spanExchangeFwd {
				b.ExchangeFwd += d
			} else {
				b.ExchangeBwd += d
			}
			b.ExchangeCalls++
			exchange += d
			fs := frames[id]
			if len(fs) == 0 {
				continue
			}
			// The exchange returns when the last worker's reply is in.
			last := fs[0]
			rtts := make([]float64, len(fs))
			for i, f := range fs {
				if f.recvRet > last.recvRet {
					last = f
				}
				rtts[i] = float64(f.recvRet-f.sendCall) / nsPerMs
				busyAll += float64(f.workerSend-f.workerRecv) / nsPerMs
			}
			self := float64((last.sendCall-c.Start)+(c.End-last.recvRet)) / nsPerMs
			send := float64(last.workerRecv-last.sendCall) / nsPerMs
			busy := float64(last.workerSend-last.workerRecv) / nsPerMs
			reply := float64(last.recvRet-last.workerSend) / nsPerMs
			b.MasterSelf += self
			b.SendWire += send
			b.WorkerBusy += busy
			b.ReplyWire += reply
			b.ShapedWait += float64(last.shapedWait) / nsPerMs
			b.StragglerGap += Percentile(rtts, 1) - Median(rtts)
			exchangeParts += self + send + busy + reply
		}
	}
	if step.End > cursor {
		gaps += step.End - cursor
	}
	b.Backbone = float64(gaps) / nsPerMs
	if b.Step > 0 {
		b.StepResidualPct = 100 * math.Abs(b.Step-covered-b.Backbone) / b.Step
		b.ExchangeResidualPct = 100 * math.Abs(exchange-exchangeParts) / b.Step
		if workers > 0 {
			b.WorkerIdleShare = 1 - busyAll/(float64(workers)*b.Step)
		}
	}
	return b
}

// column extracts one field of every budget.
func column(bs []StepBudget, f func(StepBudget) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}
