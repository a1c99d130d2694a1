package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicPub enforces the publication discipline behind the PR-6 executor
// bug: once a struct field is published through sync/atomic (an
// atomic.Load/Store/Add/Swap/CompareAndSwap taking the field's address)
// or written under a mutex, every other access must follow the same
// discipline. A field that is atomically published in one function and
// read plainly in another races: the plain read can observe a torn or
// stale value the atomic publication was introduced to rule out.
//
// Two halves:
//
//  1. Atomic half: any field passed by address to a sync/atomic function
//     anywhere in the package makes every plain (non-atomic) read or
//     write of that field a finding.
//  2. Mutex half: a field written while a sync lock is lexically held,
//     in a function other than the accessing one, makes every
//     lock-free access a finding — unless the accessing function is
//     only ever called with a lock held (the fooLocked helper pattern),
//     which the call-graph layer resolves via
//     Program.AlwaysCalledUnderLock. The mutex half only applies when
//     the field's owner struct itself carries a sync lock field: a
//     lock-less struct (a verdict value built while some *other*
//     struct's lock happens to be held) has no per-instance discipline
//     to violate. Striped designs ([N]sync.Mutex guarding slots) are
//     deliberately out of scope for the same reason.
//
// Fields of sync/atomic types (atomic.Pointer, atomic.Int64, ...) and of
// sync primitive types are exempt: their type already enforces the
// discipline. Composite-literal initialization does not count as an
// access, and neither do accesses through a local freshly built from a
// composite literal in the same function — constructors build the value
// before it is published.
var AtomicPub = &Analyzer{
	Name:       "atomicpub",
	Doc:        "struct field published via sync/atomic or a mutex is read/written plainly elsewhere",
	Components: []string{"broker", "replace", "transport", "obs", "core", "trainer", "ep"},
	Run:        runAtomicPub,
}

// fieldAccess is one access the flow layer recorded, with the declared
// function it happened in.
type fieldAccess struct {
	fieldRef
	fn *FuncInfo
}

func runAtomicPub(pass *Pass) {
	accesses := make(map[*types.Var][]fieldAccess)
	ownerLocked := make(map[*types.Var]bool)
	for _, fi := range pass.Prog.functions() {
		if fi.Pkg != pass.Pkg || fi.Test {
			continue
		}
		collectFieldAccesses(fi, accesses, ownerLocked)
	}

	// Deterministic field order for reporting.
	fields := make([]*types.Var, 0, len(accesses))
	for f := range accesses {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })

	for _, field := range fields {
		accs := accesses[field]
		var hasAtomic bool
		guardedWriters := make(map[*FuncInfo]bool)
		for _, a := range accs {
			if a.Atomic {
				hasAtomic = true
			}
			if a.Write && guarded(pass.Prog, a) {
				guardedWriters[a.fn] = true
			}
		}
		switch {
		case hasAtomic:
			for _, a := range accs {
				if a.Atomic {
					continue
				}
				kind := "read"
				if a.Write {
					kind = "write"
				}
				pass.reportf(a.Sel.Pos(), "plain %s of field %s, which is published through sync/atomic elsewhere — use the matching atomic op (clone-and-swap for compound updates)",
					kind, field.Name())
			}
		case len(guardedWriters) > 0 && ownerLocked[field]:
			for _, a := range accs {
				if guarded(pass.Prog, a) {
					continue
				}
				// Mixing is only racy across functions: a single function
				// that writes under its own lock and touches the field
				// before taking it is the build-then-publish idiom.
				if len(guardedWriters) == 1 && guardedWriters[a.fn] {
					continue
				}
				kind := "read"
				if a.Write {
					kind = "write"
				}
				pass.reportf(a.Sel.Pos(), "lock-free %s of field %s, which is written under a mutex elsewhere — hold the lock here or publish the field atomically",
					kind, field.Name())
			}
		}
	}
}

// guarded reports whether the access happens under a lock: lexically, or
// because the enclosing function is only ever called with a lock held.
func guarded(prog *Program, a fieldAccess) bool {
	return a.LockHeld || prog.alwaysCalledUnderLock(a.fn)
}

// exemptFieldType reports field types that carry their own discipline:
// sync primitives and the typed atomics.
func exemptFieldType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		// Arrays/slices of atomics (e.g. []atomic.Bool) are exempt too.
		switch u := deref(t).(type) {
		case *types.Slice:
			return exemptFieldType(u.Elem())
		case *types.Array:
			return exemptFieldType(u.Elem())
		}
		return false
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// collectFieldAccesses files the field selectors the flow layer recorded
// in one function under the package fields they access, dropping what the
// discipline does not cover. ownerLocked records, per field, whether its
// owner struct carries a sync lock field.
func collectFieldAccesses(fi *FuncInfo, out map[*types.Var][]fieldAccess, ownerLocked map[*types.Var]bool) {
	info := fi.Pkg.Info
	fresh := freshLocals(info, fi.Decl.Body)
	for _, r := range fi.fields {
		selection := info.Selections[r.Sel]
		field, ok := selection.Obj().(*types.Var)
		if !ok || field.Pkg() != fi.Pkg.Types || exemptFieldType(field.Type()) {
			continue
		}
		if base, ok := ast.Unparen(r.Sel.X).(*ast.Ident); ok && !r.Atomic && fresh[info.Uses[base]] {
			continue // constructor-local value, not yet published
		}
		if _, seen := ownerLocked[field]; !seen {
			ownerLocked[field] = structHasLock(selection.Recv())
		}
		out[field] = append(out[field], fieldAccess{r, fi})
	}
}

// freshLocals collects the function's local variables defined from a
// composite literal (`d := T{...}`, `d := &T{...}`) or new(T): values
// the function built itself and has not yet published, whose field
// accesses therefore cannot race.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = ast.Unparen(u.X)
			}
			switch r := rhs.(type) {
			case *ast.CompositeLit:
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(r.Fun).(*ast.Ident); !ok || fn.Name != "new" {
					continue
				}
			default:
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// structHasLock reports whether the selector's receiver struct directly
// carries a sync.Mutex or sync.RWMutex field — the owner-provides-the-
// discipline precondition of the mutex half.
func structHasLock(recv types.Type) bool {
	if recv == nil {
		return false
	}
	st, ok := deref(recv).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncLock(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
