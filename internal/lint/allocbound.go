package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocBound enforces two allocation invariants.
//
// First, the wire decoder's invariant from PR 1's overflow fix: a `make`
// whose length derives from a decoded wire-header field (a
// binary.LittleEndian/BigEndian integer read, or a Rows/Cols header field
// of a wire matrix) must be preceded by a bounds check on that value.
// Without the check a hostile or corrupted frame drives a multi-GiB
// allocation — or an int-overflowing rows×cols product that slips past a
// later check — before any validation runs.
//
// The analysis is per-function taint tracking along the statement list:
// values read via encoding/binary or from wire header fields are
// tainted; appearing inside a comparison in an `if` condition clears
// the taint (the code looked at the value before trusting it); a `make`
// sized by a still-tainted value is reported. Taint propagates through
// assignment, conversion and arithmetic.
//
// Second, the per-step hot-path invariant from the parallel tensor
// engine (DESIGN.md §11): inside a function named Forward, Backward,
// backwardParams, Step, stepParam, runExpert, turnMulti, retire,
// CrossEntropy, AddForward, BackwardAdd or one of the MoE block's row
// passes (dispatchRows, combineRows, scatterRows, gatherRows), calling an
// allocating tensor-op variant (SoftmaxRows) is a finding — those paths
// run every training step and must use the destination-passing (GEMM,
// *Into), in-place, or arena APIs. A
// deliberate allocation (e.g. a result that escapes the step) is
// annotated //lint:ignore allocbound <why>.
//
// Third, the observability hot-path invariant (DESIGN.md §13): inside an
// obs package's per-request hooks (Record, Observe, OnSend, …) any
// allocation expression — make, new, append, &T{…}, a function literal,
// or an fmt call — is a finding. Those hooks run for every message on
// the exchange hot path; their zero-steady-state-allocation contract is
// what keeps instrumented and uninstrumented runs within noise of each
// other.
//
// Fourth, the zero-copy codec invariant (DESIGN.md §16): inside a wire
// package's hot-path encode/decode functions (AppendFrame, the
// append*/decode* payload helpers, AppendFloat64s/DecodeFloat64s,
// decodeBody, DecodePooled, Release, Encode) a `make` or `new` is a
// finding. These functions run once or more per exchanged frame and must
// draw their buffers from the frame pools (GetBuf/getFloats), the
// caller's destination slice, or an injected allocator — a direct allocation silently reintroduces the
// per-frame garbage the pooled framing removed. `append` stays legal:
// the destination-passing encoders are built on it, and with a pre-grown
// destination it does not allocate.
var AllocBound = &Analyzer{
	Name:       "allocbound",
	Doc:        "unchecked wire-header make(), allocating tensor ops in per-step hot paths, allocations in obs per-request hooks, or make/new in wire codec hot paths",
	Components: []string{"wire", "broker", "tensor", "nn", "moe", "obs"},
	Run:        runAllocBound,
}

// hotPathFuncs are the per-step function names in which allocating
// tensor ops are banned. Matching is exact: ForwardExperts, gateBackward
// etc. are dispatch/cold paths, not the per-token compute loop.
var hotPathFuncs = map[string]bool{
	"Forward":        true,
	"Backward":       true,
	"backwardParams": true, // nn.Linear's gradient products, Backward's and BackwardParams' shared half
	"Step":           true,
	"stepParam":      true, // nn.AdamW's per-parameter update, a Fanout job
	"runExpert":      true,
	"turnMulti":      true, // broker.Worker's dispatch turn, of one master or K
	"retire":         true, // and the frames' return to the codec pools
	"CrossEntropy":   true, // nn.Loss's per-step loss and gradient
	"AddForward":     true, // nn.RMSNorm's residual add fused into the norm
	"BackwardAdd":    true, // and into its backward
	"dispatchRows":   true, // moe.Block's routed-row copy into the expert batches
	"combineRows":    true, // its weighted combine back into token order
	"scatterRows":    true, // its output-gradient scatter
	"gatherRows":     true, // and its input-gradient gather
}

// obsHotPathFuncs are the observability hooks that run once per request
// (or per span) on the exchange hot path. Inside an obs package these
// must not contain allocation syntax of any kind.
var obsHotPathFuncs = map[string]bool{
	"Record":          true, // Tracer.Record
	"Clock":           true, // Tracer.Clock
	"Observe":         true, // Histogram.Observe
	"bucketOf":        true,
	"OnEnqueue":       true,
	"OnSend":          true,
	"OnReply":         true,
	"OnDecode":        true,
	"OnCompute":       true,
	"OnWorkerRecv":    true,
	"OnWorkerQueue":   true,
	"OnWorkerReply":   true,
	"RoundStart":      true,
	"WorkerRoundDone": true,
	"RoundEnd":        true,
	"Begin":           true, // Handle.Begin (span open)
	"End":             true, // Span.End
	"ConnSend":        true,
	"ConnRecv":        true,
	"Add":             true, // Counters.Add (recv-timeout/retry/stale/duplicate)
	"AddWorker":       true, // Counters.AddWorker (per-frame traffic rows)
}

// wireHotPathFuncs are the wire codec functions that run per exchanged
// frame (rule 4). Matching is exact and scoped to wire packages.
// GetBuf/getFloats are deliberately absent — they are the designated
// pool allocators and own the miss-path make.
var wireHotPathFuncs = map[string]bool{
	"AppendFrame":         true,
	"appendHeader":        true,
	"appendTensor":        true,
	"AppendFloat64s":      true,
	"appendFP16Payload":   true,
	"encodeHalfVec":       true,
	"HalfDecode":          true,
	"decodeHalfVec":       true,
	"QuantizeHalfInPlace": true,
	"appendInt8Payload":   true,
	"DecodeFloat64s":      true,
	"decodeInt8Payload":   true,
	"decodeBody":          true,
	"DecodePooled":        true,
	"Release":             true,
}

// allocatingTensorMethods are the tensor.Tensor methods that allocate
// their result; each has a non-allocating counterpart (SoftmaxInto).
var allocatingTensorMethods = map[string]bool{
	"SoftmaxRows": true,
}

// nameRules are allocbound's name-matched rules (the second to fourth):
// the functions each checks by name, in the packages carrying its path
// component ("" for every package the analyzer runs on).
var nameRules = []struct {
	rule, component string
	funcs           map[string]bool
	check           func(*Pass, *ast.FuncDecl)
}{
	{"hotpath", "", hotPathFuncs, checkHotPathAllocs},
	{"obs", "obs", obsHotPathFuncs, checkObsHookAllocs},
	{"wire", "wire", wireHotPathFuncs, checkWireHotPathAllocs},
}

func runAllocBound(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ts := taintScan{pass: pass, tainted: map[types.Object]token.Pos{}}
			ts.block(fd.Body)
			if isTestFile(pass.fset(), fd.Pos()) {
				continue
			}
			for _, r := range nameRules {
				if (r.component == "" || hasComponent(pass.Pkg.Path, r.component)) && r.funcs[fd.Name.Name] {
					r.check(pass, fd)
				}
			}
		}
	}
}

// checkObsHookAllocs reports any allocation expression inside an obs
// per-request hook: make, new, append, a pointer-to-composite-literal, a
// function literal, or an fmt call. Value composite literals (Event{…}
// passed by value) and atomic/mutex operations are not allocations and
// pass.
func checkObsHookAllocs(pass *Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, what string) {
		pass.reportf(pos,
			"%s in obs per-request hook %s — these run for every exchange message and must not allocate; restructure onto preallocated state, or annotate //lint:ignore allocbound with why",
			what, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal (closure allocation)")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite-literal allocation")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, isB := pass.info().Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "make", "new", "append":
						report(n.Pos(), b.Name()+" allocation")
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.info().Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						report(n.Pos(), "fmt call (interface boxing allocates)")
					}
				}
			}
		}
		return true
	})
}

// checkWireHotPathAllocs reports make/new inside a wire codec hot-path
// function (rule 4). append and ordinary calls (pool getters, injected
// allocators) pass; the codec's buffers must come from those, not from
// fresh per-frame allocations.
func checkWireHotPathAllocs(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, isB := pass.info().Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make", "new":
				pass.reportf(call.Pos(),
					"%s in wire codec hot path %s — per-frame buffers must come from the frame pools (GetBuf/getFloats), the caller's destination, or an injected allocator; annotate //lint:ignore allocbound with why this allocation is deliberate",
					b.Name(), fd.Name.Name)
			}
		}
		return true
	})
}

// checkHotPathAllocs reports allocating tensor-op calls anywhere inside
// a hot-path function, including in function literals it contains.
func checkHotPathAllocs(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !allocatingTensorMethods[sel.Sel.Name] {
			return true
		}
		if !isTensorValue(pass.info(), sel.X) {
			return true
		}
		pass.reportf(call.Pos(),
			"allocating tensor op %s in per-step hot path %s — use the Into/in-place/arena variant, or annotate //lint:ignore allocbound with why the allocation must escape",
			sel.Sel.Name, fd.Name.Name)
		return true
	})
}

// isTensorValue reports whether e's static type is the Tensor type of a
// tensor package (matched by name and import-path component, like the
// wire.Matrix match below, so the fixture's mini tensor package counts).
func isTensorValue(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Name() != "Tensor" {
		return false
	}
	return hasComponent(n.Obj().Pkg().Path(), "tensor")
}

type taintScan struct {
	pass    *Pass
	tainted map[types.Object]token.Pos // decoded-but-unchecked values
}

func (s *taintScan) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

func (s *taintScan) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		// Check RHS for unchecked makes first, then propagate taint.
		for _, e := range st.Rhs {
			s.checkMakes(e)
		}
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				s.assign(lhs, st.Rhs[i])
			}
		} else if len(st.Rhs) == 1 {
			// Multi-value RHS (call, map index): taint every LHS if the
			// single RHS is tainted.
			for _, lhs := range st.Lhs {
				s.assign(lhs, st.Rhs[0])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						s.checkMakes(vs.Values[i])
						s.assign(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		// A comparison in the condition counts as the bounds check: the
		// code inspected the value before trusting it. This clears taint
		// for the rest of the function — guard-style early returns are
		// the dominant idiom in the decode paths.
		s.clearChecked(st.Cond)
		s.checkMakes(st.Cond)
		s.block(st.Body)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ExprStmt:
		s.checkMakes(st.X)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.checkMakes(e)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.clearChecked(st.Cond)
		}
		s.block(st.Body)
	case *ast.RangeStmt:
		s.block(st.Body)
	case *ast.SwitchStmt:
		if st.Tag != nil {
			s.checkMakes(st.Tag)
		}
		for _, c := range st.Body.List {
			for _, b := range c.(*ast.CaseClause).Body {
				s.stmt(b)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			for _, b := range c.(*ast.CaseClause).Body {
				s.stmt(b)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			for _, b := range c.(*ast.CommClause).Body {
				s.stmt(b)
			}
		}
	case *ast.BlockStmt:
		s.block(st)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.GoStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.block(lit.Body)
		}
	case *ast.DeferStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.block(lit.Body)
		}
	case *ast.SendStmt:
		s.checkMakes(st.Value)
	}
}

// assign propagates taint from rhs to the object behind lhs.
func (s *taintScan) assign(lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := s.pass.info().Defs[id]
	if obj == nil {
		obj = s.pass.info().Uses[id]
	}
	if obj == nil {
		return
	}
	if pos, tainted := s.exprTaint(rhs); tainted {
		s.tainted[obj] = pos
	} else {
		delete(s.tainted, obj)
	}
}

// exprTaint reports whether e carries decoded-header taint, returning
// the source position of the first taint it finds.
func (s *taintScan) exprTaint(e ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := s.pass.info().Uses[n]; obj != nil {
				if _, ok := s.tainted[obj]; ok {
					pos, found = n.Pos(), true
				}
			}
		case *ast.CallExpr:
			if isBinaryRead(s.pass.info(), n) {
				pos, found = n.Pos(), true
			}
		case *ast.SelectorExpr:
			if isWireHeaderField(s.pass.info(), n) {
				pos, found = n.Pos(), true
			}
		}
		return !found
	})
	return pos, found
}

// clearChecked removes taint from every tainted object that appears in
// a comparison within cond.
func (s *taintScan) clearChecked(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			for _, side := range [2]ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := s.pass.info().Uses[id]; obj != nil {
							delete(s.tainted, obj)
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// checkMakes reports make calls inside e whose length or capacity is
// sized by a tainted value.
func (s *taintScan) checkMakes(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if b, ok := s.pass.info().Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		for _, arg := range call.Args[1:] {
			if pos, tainted := s.exprTaint(arg); tainted {
				src := s.pass.fset().Position(pos)
				s.pass.reportf(call.Pos(), "make sized by wire-decoded value (from %s) with no preceding bounds check — a hostile frame can force a huge or overflowing allocation", src)
				break
			}
		}
		return true
	})
}

// isBinaryRead matches binary.LittleEndian.UintNN(...) /
// binary.BigEndian.UintNN(...) and binary.ReadUvarint-style calls from
// encoding/binary.
func isBinaryRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Uint16", "Uint32", "Uint64", "ReadUvarint", "ReadVarint", "Uvarint", "Varint":
	default:
		return false
	}
	// Receiver must come from encoding/binary (binary.LittleEndian etc.
	// or the package itself).
	switch x := sel.X.(type) {
	case *ast.SelectorExpr: // binary.LittleEndian.Uint32
		if obj := info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() == "encoding/binary"
		}
	case *ast.Ident: // binary.Uvarint, or a local alias of an endianness value
		if obj := info.Uses[x]; obj != nil {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path() == "encoding/binary"
			}
			if obj.Pkg() != nil && obj.Pkg().Path() == "encoding/binary" {
				return true
			}
			if t := obj.Type(); t != nil && isNamed(t, "encoding/binary", "ByteOrder") {
				return true
			}
		}
	}
	return false
}

// isWireHeaderField matches Rows/Cols selector reads on a matrix type
// declared in a wire package — the decoded geometry of a frame tensor.
func isWireHeaderField(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Rows", "Cols":
	default:
		return false
	}
	t := typeOf(info, sel.X)
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Matrix" && hasComponent(n.Obj().Pkg().Path(), "wire")
}
