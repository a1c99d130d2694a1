package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is velavet's flow layer: one walk over every function body in
// the load, and the intra-module call graph built from it. The walk is the
// only code that threads lexical lock state through statements; what it
// records per function — resolved call sites, transport ops, deadline
// bounding, blocking ops reached with a lock held, field selectors with
// their lock context — is everything locklint, atomicpub and deadlineflow
// know about a body. The two summaries propagated over the graph
// (AlwaysCalledUnderLock, UnboundedTransport) are what lets deadlineflow
// reason about "every path from an entry point to a transport op" and
// atomicpub about "functions only ever called with the lock held" without
// leaving the standard library.
//
// Scope and limitations (deliberate):
//
//   - Calls are resolved statically. A call through an interface method
//     resolves to the interface method object, which has no body — the
//     graph does not devirtualize. The transport leaf the analyzers care
//     about (Send/Recv on a connection-like value) is detected
//     structurally at the call site, so the interface boundary costs no
//     coverage there.
//   - Calls inside `go` function literals do not contribute to the
//     spawning function's flow summaries: the spawner does not block on
//     them. Goroutine hygiene is goleak's job.
//   - Lock state is lexical: Lock/RLock marks the receiver held for the
//     remaining statements (a deferred unlock keeps it held through the
//     function tail — blocking calls after `defer mu.Unlock()` still run
//     under the lock), branches fork a copy, and every function literal
//     starts from an empty set: lock state does not leak into a closure
//     or across a goroutine boundary.

// Program is the whole-load view the flow-aware analyzers consult: every
// analyzed package plus the module call graph over their function
// declarations.
type Program struct {
	// funcs indexes the function declarations with a body by canonical
	// key (types.Func.FullName); sorted holds them in key order.
	funcs  map[string]*FuncInfo
	sorted []*FuncInfo
}

// FuncInfo is one function declaration and its locally-derived facts.
type FuncInfo struct {
	// Key is the canonical identity: types.Func.FullName(), e.g.
	// "(*repro/internal/broker.Executor).sendRecv".
	Key string
	// Name is the bare declared name (for diagnostics).
	Name string
	// Decl is the syntax; Pkg the analysis unit it came from.
	Decl *ast.FuncDecl
	Pkg  *Package
	// Test marks a declaration in a _test.go file. Test functions still
	// appear in the graph, but lock-discipline summaries ignore them as
	// callers: tests are covered by the dynamic race detector, not the
	// static discipline.
	Test bool

	// Calls are the statically-resolved call sites in the body, in
	// source order.
	Calls []Callsite
	// boundsDeadline: the body syntactically establishes a time bound —
	// a Set{,Recv,Send,Read,Write}Deadline call or a select with a
	// timer-channel case. Everything at or below a bounding frame
	// counts as deadline-covered.
	boundsDeadline bool
	// transportOps are the direct conn-like Send/Recv sites (outside
	// `go` literals).
	transportOps []transportOp
	// lockedOps are the blocking operations — channel ops, conn-like
	// Send/Recv — reached while a sync lock is lexically held.
	lockedOps []lockedOp
	// fields are the struct-field selectors in the body, in walk order.
	fields []fieldRef

	// memo state for the propagated summaries.
	underLockMemo int8 // 0 unknown, 1 yes, 2 no
	unboundedMemo map[token.Pos]unboundedSite
	unboundedDone bool
	onStack       bool
}

// Callsite is one statically-resolved call in a function body.
type Callsite struct {
	// Key identifies the callee (types.Func.FullName); the callee may or
	// may not be declared in the module.
	Key string
	Pos token.Pos
	// InGo marks a call made inside a `go` function literal: it runs on
	// another goroutine and does not block the caller.
	InGo bool
	// LockHeld marks a call made while a sync lock is lexically held.
	LockHeld bool
}

// transportOp is one direct Send/Recv on a connection-like value.
type transportOp struct {
	Pos  token.Pos
	Name string // "Send" or "Recv"
	Recv string // rendered receiver expression
}

// lockedOp is one blocking operation reached with a lock held.
type lockedOp struct {
	Pos      token.Pos
	What     string    // "channel send", "transport Recv on c.conn", ...
	Lock     string    // one held lock's receiver expression
	LockedAt token.Pos // where it was acquired
}

// fieldRef is one struct-field selector and its context.
type fieldRef struct {
	Sel *ast.SelectorExpr
	// Write: the selector is (the root of) an assignment or ++/-- target.
	Write bool
	// Atomic: the selector is the &field operand of a sync/atomic call.
	Atomic bool
	// LockHeld: a sync lock is lexically held at the access.
	LockHeld bool
}

// unboundedSite is a transport op reachable without a deadline bound,
// with the call path from the queried function.
type unboundedSite struct {
	Op   transportOp
	Path string
}

// buildProgram walks every function body of every loaded package once,
// recording its local facts and the call graph. It is deterministic for a
// deterministic Load.
func buildProgram(pkgs []*Package) *Program {
	p := &Program{funcs: make(map[string]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{
					Key: obj.FullName(), Name: fd.Name.Name, Decl: fd, Pkg: pkg,
					Test: isTestFile(pkg.Fset, fd.Pos()),
				}
				w := &flowWalker{fi: fi, info: pkg.Info}
				w.block(fd.Body, heldSet{}, false)
				// Several init functions, or an external test package
				// redeclaring a name, share a key: the first (path order)
				// is the call-graph node, all of them are analyzed.
				if _, dup := p.funcs[fi.Key]; !dup {
					p.funcs[fi.Key] = fi
				}
				p.sorted = append(p.sorted, fi)
			}
		}
	}
	sort.SliceStable(p.sorted, func(i, j int) bool { return p.sorted[i].Key < p.sorted[j].Key })
	return p
}

// functions returns every module function in deterministic key order.
func (p *Program) functions() []*FuncInfo { return p.sorted }

// calleeKey resolves the static callee of a call expression to its
// canonical key, or "".
func calleeKey(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	if fn, ok := info.Defs[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// deadlineSetterNames are method/function names whose call marks a frame
// as deadline-bounding. Name-based on purpose: transport.Conn's deadline
// methods and net.Conn's deadline setters all match.
var deadlineSetterNames = map[string]bool{
	"SetDeadline": true, "SetRecvDeadline": true, "SetSendDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true,
}

// heldSet tracks currently-held locks as receiver-expression strings
// mapped to the acquisition position.
type heldSet map[string]token.Pos

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// flowWalker threads lexical lock state and go-literal depth through one
// function body, recording the FuncInfo facts as it goes.
type flowWalker struct {
	fi   *FuncInfo
	info *types.Info
	// inComm: walking a select case's communication. The select is the
	// blocking op, recorded once per case; the send or receive that
	// spells the case is not a second one.
	inComm bool
}

func (w *flowWalker) block(b *ast.BlockStmt, held heldSet, inGo bool) {
	w.stmts(b.List, held, inGo)
}

func (w *flowWalker) stmts(list []ast.Stmt, held heldSet, inGo bool) {
	for _, st := range list {
		w.stmt(st, held, inGo)
	}
}

func (w *flowWalker) stmt(st ast.Stmt, held heldSet, inGo bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if w.lockTransition(st.X, held) {
			return
		}
		w.expr(st.X, held, inGo)
	case *ast.DeferStmt:
		if isUnlockCall(w.info, st.Call) {
			return // deferred unlock: lock stays held lexically
		}
		w.call(st.Call, held, inGo)
	case *ast.GoStmt:
		// The spawned call runs on another goroutine — with fresh lock
		// state and the inGo marker, so nothing in it contributes to this
		// function's flow summaries. Its operands are evaluated here.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body, heldSet{}, true)
		} else {
			w.edge(st.Call, nil, true)
			w.expr(st.Call.Fun, held, inGo)
		}
		for _, a := range st.Call.Args {
			w.expr(a, held, inGo)
		}
	case *ast.SendStmt:
		w.blocking(st.Pos(), "channel send", held)
		w.expr(st.Chan, held, inGo)
		w.expr(st.Value, held, inGo)
	case *ast.IncDecStmt:
		w.writeExpr(st.X, held, inGo)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e, held, inGo)
		}
		for _, e := range st.Lhs {
			w.writeExpr(e, held, inGo)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e, held, inGo)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held, inGo)
		}
		w.expr(st.Cond, held, inGo)
		w.block(st.Body, held.clone(), inGo)
		if st.Else != nil {
			w.stmt(st.Else, held.clone(), inGo)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held, inGo)
		}
		w.expr(st.Cond, held, inGo)
		if st.Post != nil {
			w.stmt(st.Post, held, inGo)
		}
		w.block(st.Body, held.clone(), inGo)
	case *ast.RangeStmt:
		if t := typeOf(w.info, st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.blocking(st.Pos(), "channel receive (range)", held)
			}
		}
		w.expr(st.X, held, inGo)
		w.block(st.Body, held.clone(), inGo)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held, inGo)
		}
		w.expr(st.Tag, held, inGo)
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held.clone(), inGo)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held.clone(), inGo)
		}
	case *ast.SelectStmt:
		if selectHasTimerCase(w.info, st) {
			w.fi.boundsDeadline = true
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.blocking(cc.Comm.Pos(), "select communication", held)
				w.inComm = true
				w.stmt(cc.Comm, held, inGo)
				w.inComm = false
			}
			w.stmts(cc.Body, held.clone(), inGo)
		}
	case *ast.BlockStmt:
		w.block(st, held.clone(), inGo)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held, inGo)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held, inGo)
					}
				}
			}
		}
	}
}

// lockTransition updates held for a statement-level mu.Lock/RLock/
// Unlock/RUnlock call and reports whether e was one. TryLock counts as
// an acquisition: the conservative reading, and the codebase has none.
func (w *flowWalker) lockTransition(e ast.Expr, held heldSet) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isSyncLock(typeOf(w.info, sel.X)) {
		return false
	}
	key := types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		held[key] = call.Pos()
		return true
	case "Unlock", "RUnlock":
		delete(held, key)
		return true
	}
	return false
}

func isUnlockCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	return isSyncLock(typeOf(info, sel.X))
}

// blocking records a blocking operation if any lock is held.
func (w *flowWalker) blocking(pos token.Pos, what string, held heldSet) {
	if w.inComm {
		return
	}
	for mu, at := range held {
		w.fi.lockedOps = append(w.fi.lockedOps, lockedOp{Pos: pos, What: what, Lock: mu, LockedAt: at})
		return
	}
}

// field records a struct-field selector.
func (w *flowWalker) field(sel *ast.SelectorExpr, held heldSet, write, atomic bool) {
	if s := w.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		w.fi.fields = append(w.fi.fields, fieldRef{Sel: sel, Write: write, Atomic: atomic, LockHeld: len(held) > 0})
	}
}

// writeExpr walks an assignment target: its outermost field selector is
// a write, the rest reads. `s.f = x` writes f; `s.f[i] = x` reads the
// slice value and writes into it — a write to f for publication purposes.
func (w *flowWalker) writeExpr(e ast.Expr, held heldSet, inGo bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		w.field(e, held, true, false)
		w.expr(e.X, held, inGo)
	case *ast.IndexExpr:
		w.writeExpr(e.X, held, inGo)
		w.expr(e.Index, held, inGo)
	default:
		w.expr(e, held, inGo)
	}
}

// expr hunts call sites, channel receives and field reads inside an
// expression. A nested function literal is walked as part of the
// enclosing flow (closures here are invoked synchronously or passed to
// callees that invoke them; counting their calls is the conservative
// reading) but with no lock held: it runs on some goroutine with
// unknowable lock state.
func (w *flowWalker) expr(e ast.Expr, held heldSet, inGo bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body, heldSet{}, inGo)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), "channel receive", held)
			}
		case *ast.SelectorExpr:
			w.field(n, held, false, false)
		case *ast.CallExpr:
			w.call(n, held, inGo)
			return false
		}
		return true
	})
}

// call records one call expression, then walks its operands.
func (w *flowWalker) call(call *ast.CallExpr, held heldSet, inGo bool) {
	w.edge(call, held, inGo)
	w.expr(call.Fun, held, inGo)
	args := call.Args
	if isAtomicCall(w.info, call) {
		// The address operand is the atomic access itself, not a read.
		if addr, ok := ast.Unparen(args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
			if sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr); ok {
				w.field(sel, held, false, true)
			}
		}
		args = args[1:]
	}
	for _, a := range args {
		w.expr(a, held, inGo)
	}
}

// edge records what a call is: its resolved callee, and whether it is a
// transport op or bounds a deadline.
func (w *flowWalker) edge(call *ast.CallExpr, held heldSet, inGo bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if (name == "Send" || name == "Recv") && isConnLike(typeOf(w.info, sel.X)) {
			recv := types.ExprString(sel.X)
			w.blocking(call.Pos(), "transport "+name+" on "+recv, held)
			if !inGo {
				w.fi.transportOps = append(w.fi.transportOps, transportOp{Pos: call.Pos(), Name: name, Recv: recv})
			}
		}
		if deadlineSetterNames[name] && !inGo {
			w.fi.boundsDeadline = true
		}
	}
	if key := calleeKey(w.info, call); key != "" {
		w.fi.Calls = append(w.fi.Calls, Callsite{
			Key: key, Pos: call.Pos(), InGo: inGo, LockHeld: len(held) > 0,
		})
	}
}

// isAtomicCall matches sync/atomic's address-taking functions
// (atomic.LoadInt64(&x), atomic.CompareAndSwapPointer(&p, ...)).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[pkg].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			return true
		}
	}
	return false
}

// selectHasTimerCase reports whether a select statement carries a case
// receiving from a time channel (time.After, Timer.C, a <-chan
// time.Time) — the timer-guarded-wait idiom that bounds the select.
func selectHasTimerCase(info *types.Info, st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			continue
		}
		var recvd ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recvd = u.X
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if u, ok := comm.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recvd = u.X
				}
			}
		}
		if recvd == nil {
			continue
		}
		t := typeOf(info, recvd)
		if t == nil {
			continue
		}
		if ch, ok := t.Underlying().(*types.Chan); ok && isNamed(ch.Elem(), "time", "Time") {
			return true
		}
	}
	return false
}

// ---- propagated summaries ----

// callers returns every in-module call site targeting key, in
// deterministic order.
func (p *Program) callers(key string) []struct {
	From *FuncInfo
	Site Callsite
} {
	var out []struct {
		From *FuncInfo
		Site Callsite
	}
	for _, fi := range p.functions() {
		for _, c := range fi.Calls {
			if c.Key == key {
				out = append(out, struct {
					From *FuncInfo
					Site Callsite
				}{fi, c})
			}
		}
	}
	return out
}

// alwaysCalledUnderLock reports whether every in-module non-test call
// site of the function holds a lock — lexically, or because the calling
// function is itself only ever called under a lock. A function with no
// such callers is not "under lock". atomicpub uses this to treat the
// body of a fooLocked-style helper as guarded. Test callers are ignored:
// the race detector owns test hygiene, and a lock-free test call must
// not poison the runtime discipline.
func (p *Program) alwaysCalledUnderLock(fi *FuncInfo) bool {
	switch fi.underLockMemo {
	case 1:
		return true
	case 2:
		return false
	}
	if fi.onStack { // recursion through the caller chain: assume not
		return false
	}
	fi.onStack = true
	defer func() { fi.onStack = false }()
	all := p.callers(fi.Key)
	callers := all[:0]
	for _, c := range all {
		if !c.From.Test {
			callers = append(callers, c)
		}
	}
	ok := len(callers) > 0
	for _, c := range callers {
		if c.Site.LockHeld {
			continue
		}
		if !p.alwaysCalledUnderLock(c.From) {
			ok = false
			break
		}
	}
	if ok {
		fi.underLockMemo = 1
	} else {
		fi.underLockMemo = 2
	}
	return ok
}

// unboundedTransport returns the conn-like Send/Recv sites reachable
// from fi on the calling goroutine without passing through a
// deadline-bounding frame, keyed by position, each carrying the call
// path from fi. A function that bounds a deadline in its own body covers
// its whole subtree.
func (p *Program) unboundedTransport(fi *FuncInfo) map[token.Pos]unboundedSite {
	if fi.unboundedDone {
		return fi.unboundedMemo
	}
	if fi.onStack {
		return nil
	}
	fi.onStack = true
	defer func() { fi.onStack = false }()
	sites := make(map[token.Pos]unboundedSite)
	if !fi.boundsDeadline {
		for _, op := range fi.transportOps {
			sites[op.Pos] = unboundedSite{Op: op, Path: fi.Name}
		}
		for _, c := range fi.Calls {
			if c.InGo {
				continue
			}
			callee := p.funcs[c.Key]
			if callee == nil {
				continue
			}
			for pos, s := range p.unboundedTransport(callee) {
				if _, seen := sites[pos]; !seen {
					sites[pos] = unboundedSite{Op: s.Op, Path: fi.Name + " → " + s.Path}
				}
			}
		}
	}
	fi.unboundedMemo, fi.unboundedDone = sites, true
	return sites
}
