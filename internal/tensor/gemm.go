// GEMM: one microkernel contract, three bodies, one driver.
//
// The contract (gemmTile): a 4×8 tile of C is
//
//	c[i][j] = Σ_{p=0..k-1} A(i,p) · B[p][j]
//
// computed as one serial chain of fused multiply-adds: every accumulator
// starts at +0 and, with p ascending, becomes fma(A(i,p), B[p][j], c) —
// the exact product plus the accumulator, rounded once. That is the scalar
// loop `s = 0; for p { s = math.FMA(a, b, s) }`. A is addressed by two
// strides (row, p) so the same kernel serves A and Aᵀ; B is a packed k×8
// panel, packed from eight columns of B (packPanel) or — for MatMulT,
// whose B is the transpose of its operand — from eight rows of Bᵀ
// (packPanelT), so no entry point transposes anything. A weight that does
// not change between products can be packed once (Panels) and its panels
// read in place. Because each c[i][j] is still one serial chain, the tile
// shape, the partition and the parallel degree are invisible in the
// result bits: what vectorises is (i, j), never p.
//
// The bodies (tileBody): AVX-512 or AVX2 assembly (gemm_amd64.s), the
// widest the CPU has, and gemmTileGo below (math.FMA) everywhere else and
// under the purego build tag. All three run the same chain per element,
// and a fused multiply-add is correctly rounded by definition, so the body
// is invisible in the bits too. A body may also compute two adjacent full
// panels in one call (gemmTile2): the AVX-512 body does, a 4×16 block
// whose eight accumulators hide the multiply-add latency that four would
// expose. gemmPanels pairs panels inside each shard; which panels pair
// never shows in the bits either, since every element keeps its own chain.
//
// Unlike the scalar row kernels the tile replaced, a zero in A is
// multiplied like any other value, so a zero in A does not hide an Inf or
// NaN in B: 0·Inf is NaN, as IEEE 754 says. (Under the fused contract
// skipping it would not even be bit-neutral for finite operands: an exact
// product too small to represent rounds the chain to −0, which a later
// +0 product turns back into +0.)
//
// Every product is A(i,p)·B[p][j] in that operand order. MatMulT used to
// compute Cᵀ = o·tᵀ and so multiplied o[j][p]·t[i][p]; it now multiplies
// t[i][p]·o[j][p]. Multiplication commutes bit for bit except in which
// NaN payload survives when more than one operand is NaN (the hardware
// picks by operand position, math.FMA by its own rule), so there the
// payload may differ between bodies; NaN-ness and every finite bit do not.
package tensor

import "math"

const (
	tileRows = 4
	tileCols = 8
)

// tileBody names one body of the tile contract.
type tileBody int

const (
	tileGo   tileBody = iota // gemmTileGo
	tileAVX2                 // gemmTileAVX2: two YMM accumulators per row
	// tileAVX512 is gemmTileAVX512, one ZMM accumulator per row, and its
	// pair gemmTile2AVX512. Both assembly bodies count tileMAddsPerUnit =
	// 4. Timed alone, a fused multiply-add now retires in ≈0.06–0.08 ns on
	// the expert shapes (BenchmarkExpertGEMMBodies), which would read 5–7.
	// But BenchmarkParallelCutOver still has two shards win from 64×64×64
	// (65K units at 4) up, below the threshold; a larger count would only
	// keep more of those products serial. The partition never shows in the
	// bits either way.
	tileAVX512
)

func (b tileBody) String() string { return [...]string{"go", "avx2", "avx512"}[b] }

// Panels is a right-hand operand B packed once: all of its k×8 column
// panels, byte for byte what the driver would pack on every product, for a
// B that does not change between products — a frozen weight. The zero
// value is empty; the first product given it packs it. It remembers the
// tensor, shape and orientation it was packed from and repacks when a
// product names another, but it cannot see a write into that tensor's
// values: its owner Resets it before they may change.
type Panels struct {
	data []float64
	src  *float64 // first element of the operand packed
	k, m int
	bT   bool
}

// Reset drops the panels; the next product given p packs them again.
func (p *Panels) Reset() { *p = Panels{} }

// of returns the panels of B for a product over the operand o — B = o as
// [k,m], or with bT B = oᵀ — packing them unless p already holds exactly
// these. A nil p, and an empty B, have none.
func (p *Panels) of(o *Tensor, k, m int, bT bool) []float64 {
	if p == nil || k == 0 || m == 0 {
		return nil
	}
	if p.src != &o.Data[0] || p.k != k || p.m != m || p.bT != bT {
		size := (m + tileCols - 1) / tileCols * k * tileCols
		if cap(p.data) < size {
			p.data = make([]float64, size)
		}
		p.data = p.data[:size]
		packPanels(p.data, o.Data, k, m, bT)
		p.src, p.k, p.m, p.bT = &o.Data[0], k, m, bT
	}
	return p.data
}

// gemm writes the [n,m] row-major product c = A·B, where A(i,p) is
// a[i*sa0+p*sa1] and B is b, [k,m] row-major — or, with bT set, the
// transpose of b, [m,k] row-major. c is fully overwritten. panels, when
// not nil, is B already packed (packPanels), and the driver reads its
// panels instead of packing b.
func gemm(c, a, b, panels []float64, n, k, m, sa0, sa1 int, bT bool) {
	if n == 0 || m == 0 {
		return
	}
	if k == 0 {
		clear(c)
		return
	}
	if n < tileRows {
		// Fewer rows than one tile: run a zero-padded copy of A and keep
		// the rows that exist.
		ap, cp := Get(tileRows, k), GetDirty(tileRows, m)
		for i := 0; i < n; i++ {
			for p := 0; p < k; p++ {
				ap.Data[i*k+p] = a[i*sa0+p*sa1]
			}
		}
		gemm(cp.Data, ap.Data, b, panels, tileRows, k, m, k, 1, bT)
		copy(c, cp.Data[:n*m])
		Put(ap)
		Put(cp)
		return
	}
	// Shards are whole column panels: the goroutine that owns eight columns
	// of C packs their k×8 panel of B (or reads it from panels), so no
	// panel is packed more than once per product however many shards
	// there are.
	np, work := (m+tileCols-1)/tileCols, n*k*m/tileMAddsPerUnit()
	if Serial(np, work) {
		gemmPanels(c, a, b, panels, 0, np, n, k, m, sa0, sa1, bT)
		return
	}
	p := newTask(gemmBody)
	p.c, p.a, p.b, p.panels, p.bT = c, a, b, panels, bT
	p.rows, p.k, p.m, p.sa0, p.sa1 = n, k, m, sa0, sa1
	p.split(np)
}

func gemmBody(p *task, lo, hi int) {
	gemmPanels(p.c, p.a, p.b, p.panels, lo, hi, p.rows, p.k, p.m, p.sa0, p.sa1, p.bT)
}

// pairPanels lets gemmPanels hand two adjacent full panels to one
// gemmTile2 call. Only tests clear it, to show that pairing never shows in
// the bits.
var pairPanels = true

// gemmPanels computes column panels [plo, phi) of c — columns [8·plo,
// min(8·phi, m)) — over all n >= tileRows rows. Each k×8 panel of b is
// packed contiguous once, or sliced out of panels, and reused by every
// row tile; two adjacent full panels go to the tile together, the second
// packed right after the first as in panels. Edges never fall to a scalar
// loop: a ragged last row tile steps back to n-4 and recomputes the
// overlap (same goroutine, same values), and a ragged last panel is
// zero-padded and its tiles stored through a scratch tile.
func gemmPanels(c, a, b, panels []float64, plo, phi, n, k, m, sa0, sa1 int, bT bool) {
	var scratch *Tensor
	if panels == nil {
		scratch = GetDirty(2*k, tileCols)
	}
	var edge [tileRows * tileCols]float64
	for q := plo; q < phi; q++ {
		j, w := q*tileCols, min(tileCols, m-q*tileCols)
		np := 1
		if pairPanels && q+1 < phi && m-j >= 2*tileCols {
			np = 2
		}
		var bp []float64
		if panels != nil {
			bp = panels[q*k*tileCols : (q+np)*k*tileCols]
		} else {
			bp = scratch.Data[:np*k*tileCols]
			for h := 0; h < np; h++ {
				packPanelOf(bp[h*k*tileCols:], b, k, m, j+h*tileCols, w, bT)
			}
		}
		for i := 0; i < n; i += tileRows {
			if i > n-tileRows {
				i = n - tileRows
			}
			switch {
			case np == 2:
				gemmTile2(k, a[i*sa0:], sa0, sa1, bp, c[i*m+j:], m)
			case w == tileCols:
				gemmTile(k, a[i*sa0:], sa0, sa1, bp, c[i*m+j:], m)
			default:
				gemmTile(k, a[i*sa0:], sa0, sa1, bp, edge[:], tileCols)
				for r := 0; r < tileRows; r++ {
					copy(c[(i+r)*m+j:(i+r)*m+j+w], edge[r*tileCols:])
				}
			}
		}
		q += np - 1
	}
	Put(scratch)
}

// packPanels packs all of B — b as [k,m], or with bT the transpose of b as
// [m,k] — into bp the way gemmPanels packs it one panel at a time: panel
// q is the k×8 block at bp[8k·q:], the last one zero-padded when m is not
// a multiple of 8.
func packPanels(bp, b []float64, k, m int, bT bool) {
	for q := 0; q*tileCols < m; q++ {
		packPanelOf(bp[q*k*tileCols:(q+1)*k*tileCols], b, k, m, q*tileCols, min(tileCols, m-q*tileCols), bT)
	}
}

// packPanelOf packs the panel of columns [j, j+w) of B (see packPanels).
func packPanelOf(bp, b []float64, k, m, j, w int, bT bool) {
	if bT {
		packPanelT(bp, b, k, j, w)
	} else {
		packPanel(bp, b, k, m, j, w)
	}
}

// packPanel copies columns [j, j+w) of the [k,m] matrix b into the k×8
// panel bp, zero-filling columns w..7. The full-width copy is eight
// scalar moves: an [8]float64 assignment compiles to a runtime.memmove
// call per 64-byte row.
func packPanel(bp, b []float64, k, m, j, w int) {
	if w == tileCols {
		for p := 0; p < k; p++ {
			d, s := (*[tileCols]float64)(bp[p*tileCols:]), (*[tileCols]float64)(b[p*m+j:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		}
		return
	}
	for p := 0; p < k; p++ {
		row := bp[p*tileCols : (p+1)*tileCols]
		clear(row[copy(row, b[p*m+j:p*m+j+w]):])
	}
}

// packPanelT packs the same panel of B = oᵀ from the [m,k] matrix o: rows
// [j, j+w) of o become the panel's columns, read as eight sequential
// streams.
func packPanelT(bp, o []float64, k, j, w int) {
	if w == tileCols {
		// [:k] on each row is what lets the compiler drop the loop's bounds checks.
		o = o[j*k : (j+tileCols)*k]
		r0, r1, r2, r3 := o[:k], o[k:][:k], o[2*k:][:k], o[3*k:][:k]
		r4, r5, r6, r7 := o[4*k:][:k], o[5*k:][:k], o[6*k:][:k], o[7*k:][:k]
		for p := 0; p < k; p++ {
			d := (*[tileCols]float64)(bp[p*tileCols:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[p], r1[p], r2[p], r3[p], r4[p], r5[p], r6[p], r7[p]
		}
		return
	}
	clear(bp[:k*tileCols])
	for c := 0; c < w; c++ {
		row := o[(j+c)*k : (j+c+1)*k]
		for p, v := range row {
			bp[p*tileCols+c] = v
		}
	}
}

// gemmTileGo is the portable body of the tile contract: the 4×8 tile one
// row at a time, eight scalar accumulators in registers (wider and the
// compiler spills them), each a math.FMA chain.
func gemmTileGo(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	for i := 0; i < tileRows; i++ {
		ai := a[i*sa0:]
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		for p := 0; p < k; p++ {
			b := (*[tileCols]float64)(bp[p*tileCols:])
			x := ai[p*sa1]
			c0 = math.FMA(x, b[0], c0)
			c1 = math.FMA(x, b[1], c1)
			c2 = math.FMA(x, b[2], c2)
			c3 = math.FMA(x, b[3], c3)
			c4 = math.FMA(x, b[4], c4)
			c5 = math.FMA(x, b[5], c5)
			c6 = math.FMA(x, b[6], c6)
			c7 = math.FMA(x, b[7], c7)
		}
		*(*[tileCols]float64)(c[i*ldc:]) = [tileCols]float64{c0, c1, c2, c3, c4, c5, c6, c7}
	}
}
