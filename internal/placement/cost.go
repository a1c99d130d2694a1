package placement

import "repro/internal/wire"

// This file is the one place the paper's cost model (§IV-B, Eq. 5–8) is
// written: Evaluate and sim.RunVela reduce a block with BlockComm; the
// LP's epigraph rows and the LPT fill under Greedy and Repair weigh an
// expert with expertSec. A new term is added here and nowhere else. The
// floating-point operation order of these forms is part of the contract:
// a mathematically equal re-association of one coefficient moves the
// simplex to another vertex (DESIGN.md §5), and TestPinnedPlacements pins
// every decision to the bit.

// transfers is how many times a routed token copy crosses the
// master↔worker link per step: feature send and gather in the forward
// pass (Eq. 5's 2·D), gradient send and gather in the backward pass.
const transfers = 4

// RowBytes is the one-way wire payload of one routed token copy:
// bitsPerValue·H/8 value bytes plus the encoding's per-row scale overhead
// (int8 carries one absmax scale per token row).
func RowBytes(bitsPerValue, featureSize int, enc wire.Encoding) float64 {
	return float64(bitsPerValue)*float64(featureSize)/8 + float64(enc.ScaleBytesPerRow())
}

// TokenBytes is RowBytes at the encoding's own bit depth. Deployments use
// it to keep Problem.BytesPerToken in lockstep with the physical wire
// encoding.
func TokenBytes(enc wire.Encoding, featureSize int) float64 {
	return RowBytes(enc.BitsPerValue(), featureSize, enc)
}

// routedBytes is the payload of moving routed token copies one way.
func (p *Problem) routedBytes(routed float64) float64 {
	return routed * p.BytesPerToken
}

// routedSec is the seconds worker n needs to move routed token copies one
// way — Eq. 5–6 for one transfer.
func (p *Problem) routedSec(n int, routed float64) float64 {
	return p.routedBytes(routed) / p.Bandwidth[n]
}

// expertSec is expert (l, e)'s share of worker n's expected one-way
// transfer time in block l, (bytes·K/B_n)·P[l][e]: the LP's epigraph
// coefficient and the weight the LPT fill balances.
func (p *Problem) expertSec(n, l, e int) float64 {
	return p.routedSec(n, p.RoutingsPerStep) * p.P[l][e]
}

// BlockComm reduces one MoE block under Eq. 7, given the token copies
// routed to each worker (expected or sampled): the block's communication
// seconds — all four transfers wait for the slowest worker — and which
// worker that is. The block's external traffic, the bytes of workers
// outside the master's node, is added to *crossBytes in worker order, so
// a caller's running total keeps one association across blocks.
func (p *Problem) BlockComm(routed []float64, crossBytes *float64) (sec float64, bottleneck int) {
	for n, r := range routed {
		if t := p.routedSec(n, r); t > sec {
			sec, bottleneck = t, n
		}
		if p.WorkerNode[n] != p.MasterNode {
			*crossBytes += transfers * p.routedBytes(r)
		}
	}
	return transfers * sec, bottleneck
}
