// GEMM: one microkernel contract, two bodies, one driver.
//
// The contract (gemmTile): a 4×8 tile of C is
//
//	c[i][j] = Σ_{p=0..k-1} A(i,p) · B[p][j]
//
// with every accumulator starting at +0, p ascending, and the multiply
// and the add rounded separately — exactly the operation sequence of the
// scalar loop `c = 0; for p { c += a*b }`. A is addressed by two strides
// (row, p) so the same kernel serves A and Aᵀ; B is a packed k×8 panel,
// packed from eight columns of B (packPanel) or — for MatMulT, whose B is
// the transpose of its operand — from eight rows of Bᵀ (packPanelT), so no
// entry point transposes anything. A weight that does not change between
// products can be packed once (Panels) and its panels read in place.
// Because each c[i][j] is still one serial sum, the tile shape, the
// partition and the parallel degree are invisible in the result bits:
// what vectorises is (i, j), never p. A fused multiply-add would round
// once instead of twice and change every bit, so neither body uses one.
//
// The bodies: AVX2 assembly (gemm_amd64.s) where the CPU has it, and
// gemmTileGo below everywhere else and under the purego build tag.
//
// Unlike the scalar row kernels this replaces, a zero in A is multiplied
// like any other value. For finite operands that is bit-neutral — an
// accumulator that starts at +0 can never become −0, so adding ±0 leaves
// it unchanged — but a zero in A no longer hides an Inf or NaN in B:
// 0·Inf is NaN, as IEEE 754 says.
//
// Every product is A(i,p)·B[p][j] in that operand order. MatMulT used to
// compute Cᵀ = o·tᵀ and so multiplied o[j][p]·t[i][p]; it now multiplies
// t[i][p]·o[j][p]. Multiplication commutes bit for bit except in which
// NaN payload survives when both operands are NaN (the hardware picks by
// operand position), so there the payload may differ from the transposing
// MatMulT's; NaN-ness and every finite bit do not.
package tensor

const (
	tileRows = 4
	tileCols = 8
)

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

// gemmPanels computes column panels [plo, phi) of c — columns [8·plo,
// min(8·phi, m)) — over all n >= tileRows rows. Each k×8 panel of b is
// packed contiguous once, or sliced out of panels, and reused by every
// row tile. Edges never fall to a scalar loop: a ragged last row tile
// steps back to n-4 and recomputes the overlap (same goroutine, same
// values), and a ragged last panel is zero-padded and its tiles stored
// through a scratch tile.
func gemmPanels(c, a, b, panels []float64, plo, phi, n, k, m, sa0, sa1 int, bT bool) {
	var scratch *Tensor
	if panels == nil {
		scratch = GetDirty(k, tileCols)
	}
	var edge [tileRows * tileCols]float64
	for q := plo; q < phi; q++ {
		j, w := q*tileCols, min(tileCols, m-q*tileCols)
		var bp []float64
		if panels != nil {
			bp = panels[q*k*tileCols : (q+1)*k*tileCols]
		} else {
			bp = scratch.Data
			packPanelOf(bp, b, k, m, j, w, bT)
		}
		for i := 0; i < n; i += tileRows {
			if i > n-tileRows {
				i = n - tileRows
			}
			if w == tileCols {
				gemmTile(k, a[i*sa0:], sa0, sa1, bp, c[i*m+j:], m)
				continue
			}
			gemmTile(k, a[i*sa0:], sa0, sa1, bp, edge[:], tileCols)
			for r := 0; r < tileRows; r++ {
				copy(c[(i+r)*m+j:(i+r)*m+j+w], edge[r*tileCols:])
			}
		}
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
// compiler spills them). The float64() conversions keep the product's
// rounding where the contract puts it on architectures whose compilers
// would otherwise fuse the multiply-add.
func gemmTileGo(k int, a []float64, sa0, sa1 int, bp, c []float64, ldc int) {
	for i := 0; i < tileRows; i++ {
		ai := a[i*sa0:]
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		for p := 0; p < k; p++ {
			b := (*[tileCols]float64)(bp[p*tileCols:])
			x := ai[p*sa1]
			c0 += float64(x * b[0])
			c1 += float64(x * b[1])
			c2 += float64(x * b[2])
			c3 += float64(x * b[3])
			c4 += float64(x * b[4])
			c5 += float64(x * b[5])
			c6 += float64(x * b[6])
			c7 += float64(x * b[7])
		}
		*(*[tileCols]float64)(c[i*ldc:]) = [tileCols]float64{c0, c1, c2, c3, c4, c5, c6, c7}
	}
}
