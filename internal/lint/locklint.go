package lint

// LockLint enforces the invariant behind PR 1's broker deadlock: no
// sync.Mutex/RWMutex may be held across a blocking transport operation
// (a Send/Recv on a connection-like value) or a channel operation. A
// lock held across a blocking Send wedges the whole dispatcher the
// moment the peer stops draining — exactly the send-everything-then-
// receive failure the pipelined exchange was built to kill.
//
// The analysis is per-function and lexical, and it is the flow layer's:
// locklint reports the blocking operations the one body walk
// (callgraph.go) reached while at least one lock was held.
var LockLint = &Analyzer{
	Name:       "locklint",
	Doc:        "mutex held across a blocking transport send/recv or channel operation",
	Components: []string{"broker"},
	Run:        runLockLint,
}

func runLockLint(pass *Pass) {
	for _, fi := range pass.Prog.functions() {
		if fi.Pkg != pass.Pkg {
			continue
		}
		for _, op := range fi.lockedOps {
			pass.reportf(op.Pos, "%s while holding %s (locked at %s); release the lock before blocking — a peer that stops draining wedges every goroutine contending for %s",
				op.What, op.Lock, pass.fset().Position(op.LockedAt), op.Lock)
		}
	}
}
