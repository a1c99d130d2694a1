package broker

import (
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The tests of the host-local base store (checkpoint.BaseStore) behind
// Executor.install, at stepbench churn's geometry: 2 layers x 8 experts,
// d=128, h=352, LoRA r=8, two AdamW workers, experts alternating between
// them.

// sendRecvMeter sums the encoded size of every frame the master sends
// and receives, apart.
type sendRecvMeter struct{ sent, recv atomic.Int64 }

func (m *sendRecvMeter) ConnSend(bytes int) { m.sent.Add(int64(bytes)) }
func (m *sendRecvMeter) ConnRecv(bytes int) { m.recv.Add(int64(bytes)) }

// churnSpec is churn's expert geometry.
var churnSpec = ExpertSpec{D: 128, Hidden: 352, LoRARank: 8, LoRAAlpha: 16}

// churnGrid builds churn's 16 LoRA experts (seed 1) and their assignment.
func churnGrid() ([][]*moe.Expert, *placement.Assignment) {
	const layers, experts = 2, 8
	rng := rand.New(rand.NewSource(1))
	grid := make([][]*moe.Expert, layers)
	assign := placement.NewAssignment(layers, experts)
	for l := range grid {
		for e := 0; e < experts; e++ {
			ex := moe.NewExpert(moe.ExpertID{Layer: l, Expert: e}, rng, churnSpec.D, churnSpec.Hidden, false)
			ex.AttachLoRA(rng, churnSpec.LoRARank, churnSpec.LoRAAlpha)
			grid[l] = append(grid[l], ex)
			assign.Worker[l][e] = e % 2
		}
	}
	return grid, assign
}

// storeDeployment starts one in-process worker per entry of workerDirs,
// each with that base store directory, behind metered pipes, and an
// executor whose store is masterDir with a counter table. Shutdown and
// the serve loops' exit are checked at cleanup.
func storeDeployment(t *testing.T, assign *placement.Assignment, masterDir string, workerDirs ...string) (*Executor, *sendRecvMeter) {
	t.Helper()
	meter := &sendRecvMeter{}
	conns := make([]transport.Conn, len(workerDirs))
	var wg sync.WaitGroup
	errs := make([]error, len(workerDirs))
	for n, dir := range workerDirs {
		cfg := DefaultWorkerConfig()
		cfg.BaseDir = dir
		master, workerEnd := transport.Pipe()
		conns[n] = transport.WithMeter(master, meter)
		wg.Add(1)
		go func(n int, w *Worker) {
			defer wg.Done()
			errs[n] = w.Serve(workerEnd)
		}(n, NewWorker(n, cfg))
	}
	x := NewExecutor(conns, assign)
	x.BaseDir = masterDir
	x.Counters = obs.NewCounters(make([]bool, len(conns)))
	t.Cleanup(func() {
		if err := x.Shutdown(); err != nil {
			t.Error(err)
		}
		wg.Wait()
		for n, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", n, err)
			}
		}
	})
	return x, meter
}

// storeDir is a fresh base store directory for one test: Put makes it
// private (mode 0700), which a t.TempDir() itself is not.
func storeDir(t *testing.T) string { return filepath.Join(t.TempDir(), "bases") }

// installCounts reads the executor's base counters: keyed installs, full
// entries, misses.
func installCounts(x *Executor) [3]int64 {
	return [3]int64{x.Counters.Get(obs.BaseKeyed), x.Counters.Get(obs.BaseFull), x.Counters.Get(obs.BaseMisses)}
}

// keyedSize is the encoded size of the keyed MsgAssign that installs ex
// with opt: its delta entry plus a 64-digit key.
func keyedSize(ex *moe.Expert, opt *expertOptState) int64 {
	m := encodeEntry(wire.MsgAssign, ex, churnSpec, opt, baseSum(frozenOf(ex)))
	m.Text = strings.Repeat("0", 64)
	return int64(wire.EncodedSize(m))
}

// ackSize is the encoded size of one MsgAck or MsgBaseMiss reply.
var ackSize = int64(wire.EncodedSize(&wire.Message{Type: wire.MsgAck}))

// expertOutputs runs one forward and one backward of every expert over
// a fixed batch and returns the outputs, for a bit-for-bit comparison of
// two deployments' weights.
func expertOutputs(t *testing.T, x *Executor, grid [][]*moe.Expert) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var outs [][]float64
	for l, row := range grid {
		batches := make(map[int]*tensor.Tensor, len(row))
		for e := range row {
			b := tensor.Zeros(3, churnSpec.D)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			batches[e] = b
		}
		for _, backward := range []bool{false, true} {
			res, err := x.exchange(l, batches, backward)
			if err != nil {
				t.Fatal(err)
			}
			for e := range row {
				outs = append(outs, append([]float64(nil), res[e].Data...))
			}
		}
	}
	return outs
}

// TestBaseStoreDistributeBytes pins what Distribute and a retry's restore
// put on the wire. With the worker reading the master's store, every
// install is the delta and the key — exactly those frames' bytes, one ack
// each. With a worker whose store lacks the bases, every install misses
// and the base alone follows (MsgBase): delta plus base, one miss reply
// and one ack each, and the miss counted; the worker then holds the
// bases, so the next deployment on its store hits. A retry's restore
// round, which shipped 21 729 584 B of full entries (with moments) before
// the store, ships the deltas only.
func TestBaseStoreDistributeBytes(t *testing.T) {
	grid, assign := churnGrid()
	var deltas, bases int64
	for _, row := range grid {
		for _, ex := range row {
			deltas += keyedSize(ex, nil)
			bases += int64(wire.EncodedSize(&wire.Message{Type: wire.MsgBase, Tensors: frozenOf(ex)}))
		}
	}
	const experts = 16

	t.Run("hit", func(t *testing.T) {
		dir := storeDir(t)
		x, meter := storeDeployment(t, assign, dir, dir, dir)
		if err := x.Distribute(grid, churnSpec); err != nil {
			t.Fatal(err)
		}
		if sent, recv := meter.sent.Load(), meter.recv.Load(); sent != deltas || recv != experts*ackSize {
			t.Fatalf("Distribute sent %d B and received %d B, want the deltas' %d B and %d acks' %d B", sent, recv, deltas, experts, experts*ackSize)
		}
		if sent := meter.sent.Load(); sent != 1_477_952 {
			t.Fatalf("Distribute sent %d B, pinned 1 477 952", sent)
		}
		if got := installCounts(x); got != [3]int64{experts, 0, 0} {
			t.Fatalf("keyed/full/misses = %v, want %d keyed", got, experts)
		}

		// A retry: step once so every expert has moments, then restore the
		// boundary's snapshot onto the same hosts.
		if err := x.Step(); err != nil {
			t.Fatal(err)
		}
		snap, err := x.SnapshotExperts(0)
		if err != nil {
			t.Fatal(err)
		}
		var full int64
		for _, e := range snap.Entries {
			ts := make([]wire.Matrix, len(e.Tensors))
			for i, st := range e.Tensors {
				ts[i] = wire.Matrix{Rows: st.Rows, Cols: st.Cols, Data: st.Data}
			}
			composed, err := x.compose(moe.ExpertID{Layer: e.Layer, Expert: e.Expert}, ts)
			if err != nil {
				t.Fatal(err)
			}
			full += int64(wire.EncodedSize(&wire.Message{Type: wire.MsgAssign, Tensors: composed}))
		}
		if full != 21_729_584 {
			t.Fatalf("the restore's full entries would be %d B, DESIGN §12 says 21 729 584", full)
		}
		before := meter.sent.Load()
		if err := x.RestoreExperts(snap.Entries, assign); err != nil {
			t.Fatal(err)
		}
		if sent := meter.sent.Load() - before; sent != 4_428_800 {
			t.Fatalf("the retry's restore sent %d B, pinned 4 428 800 (deltas with moments)", sent)
		}
	})

	t.Run("miss", func(t *testing.T) {
		master, w0, w1 := storeDir(t), storeDir(t), storeDir(t)
		x, meter := storeDeployment(t, assign, master, w0, w1)
		ref := expertOutputs(t, func() *Executor {
			y, _ := storeDeployment(t, assign, "", "", "")
			if err := y.Distribute(grid, churnSpec); err != nil {
				t.Fatal(err)
			}
			return y
		}(), grid)
		if err := x.Distribute(grid, churnSpec); err != nil {
			t.Fatal(err)
		}
		if sent, recv := meter.sent.Load(), meter.recv.Load(); sent != deltas+bases || recv != 2*experts*ackSize {
			t.Fatalf("Distribute sent %d B and received %d B, want delta+base %d B and %d replies' %d B", sent, recv, deltas+bases, 2*experts, 2*experts*ackSize)
		}
		if got := installCounts(x); got != [3]int64{experts, 0, experts} {
			t.Fatalf("keyed/full/misses = %v, want %d keyed installs that all missed", got, experts)
		}
		if got := expertOutputs(t, x, grid); !equalRows(got, ref) {
			t.Fatal("experts installed after a miss compute other bits than full-entry installs")
		}
		for _, dir := range []string{w0, w1} {
			if files, _ := filepath.Glob(filepath.Join(dir, "*.base")); len(files) != experts/2 {
				t.Fatalf("worker store %s holds %d bases after the misses, want %d", dir, len(files), experts/2)
			}
		}
		y, _ := storeDeployment(t, assign, master, w0, w1)
		if err := y.Distribute(grid, churnSpec); err != nil {
			t.Fatal(err)
		}
		if got := installCounts(y); got != [3]int64{experts, 0, 0} {
			t.Fatalf("after the workers kept the bases: keyed/full/misses = %v, want %d keyed", got, experts)
		}
	})
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !testutil.BitEqualSlices(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestBaseStoreCorruptFileIsRefused: one flipped byte in one base file.
// The worker refuses the file (its bytes fail the entry's CRC32C), answers
// a miss, gets that expert's base and rewrites the file; every expert
// computes the bits a full-entry install does.
func TestBaseStoreCorruptFileIsRefused(t *testing.T) {
	grid, assign := churnGrid()
	dir := storeDir(t)
	x, _ := storeDeployment(t, assign, dir, dir, dir)
	if err := x.Distribute(grid, churnSpec); err != nil {
		t.Fatal(err)
	}
	victim := x.base[grid[1][3].ID].key
	file := filepath.Join(dir, victim+".base")
	good, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x10
	if err := os.WriteFile(file, bad, 0o600); err != nil {
		t.Fatal(err)
	}

	y, _ := storeDeployment(t, assign, dir, dir, dir)
	if err := y.Distribute(grid, churnSpec); err != nil {
		t.Fatal(err)
	}
	if got := installCounts(y); got != [3]int64{16, 0, 1} {
		t.Fatalf("keyed/full/misses = %v, want 16 keyed and one miss", got)
	}
	if repaired, err := os.ReadFile(file); err != nil || crc32.Checksum(repaired, castagnoli) != crc32.Checksum(good, castagnoli) {
		t.Fatalf("the corrupt file was not repaired (err %v)", err)
	}
	ref, _ := storeDeployment(t, assign, "", "", "")
	if err := ref.Distribute(grid, churnSpec); err != nil {
		t.Fatal(err)
	}
	if !equalRows(expertOutputs(t, y, grid), expertOutputs(t, ref, grid)) {
		t.Fatal("an expert installed over a corrupt store computes other bits than a full-entry install")
	}
}

// TestBaseStoreUnwritableFallsBackToFullEntries: a master whose store
// cannot be written ships every install as a full entry, in one round,
// with no error.
func TestBaseStoreUnwritableFallsBackToFullEntries(t *testing.T) {
	grid, assign := churnGrid()
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(blocker, "bases") // under a regular file: never a directory
	x, meter := storeDeployment(t, assign, dir, dir, dir)
	if err := x.Distribute(grid, churnSpec); err != nil {
		t.Fatalf("Distribute over an unwritable store: %v", err)
	}
	var fulls int64
	for _, row := range grid {
		for _, ex := range row {
			fulls += int64(wire.EncodedSize(encodeExpert(ex, churnSpec)))
		}
	}
	if got := installCounts(x); got != [3]int64{0, 16, 0} || meter.sent.Load() != fulls {
		t.Fatalf("keyed/full/misses = %v and %d B sent, want 16 full entries' %d B", got, meter.sent.Load(), fulls)
	}
}

// TestBaseStoreRetryInstallsFromHostedExpert: a worker with no store still
// restores an expert it hosts from its own copy of the base, so a retry's
// restore moves deltas only; a failover onto a worker that does not host
// the expert misses and gets the base.
func TestBaseStoreRetryInstallsFromHostedExpert(t *testing.T) {
	grid, assign := churnGrid()
	x, meter := storeDeployment(t, assign, storeDir(t), "", "")
	if err := x.Distribute(grid, churnSpec); err != nil {
		t.Fatal(err)
	}
	if err := x.Step(); err != nil {
		t.Fatal(err)
	}
	snap, err := x.SnapshotExperts(0)
	if err != nil {
		t.Fatal(err)
	}
	start := installCounts(x)
	before := meter.sent.Load()
	if err := x.RestoreExperts(snap.Entries, assign); err != nil {
		t.Fatal(err)
	}
	if got := installCounts(x); got[2] != start[2] || meter.sent.Load()-before != 4_428_800 {
		t.Fatalf("retry: %d misses and %d B, want none and the deltas' 4 428 800 B", got[2]-start[2], meter.sent.Load()-before)
	}
	moved := assign.Clone()
	moved.Worker[0][0] = 1
	if err := x.RestoreExperts(snap.Entries, moved); err != nil {
		t.Fatal(err)
	}
	if got := installCounts(x); got[2]-start[2] != 1 {
		t.Fatalf("failover of one expert onto a storeless worker: %d misses, want 1", got[2]-start[2])
	}
}

// TestBaseStoreMissKeepsTheDelta: a storeless worker answers a keyed
// install with MsgBaseMiss and keeps the delta; a MsgBase with another
// base's bytes, or for an expert whose install did not miss, is refused,
// and the right base completes the install under the MsgBase's Seq.
func TestBaseStoreMissKeepsTheDelta(t *testing.T) {
	grid, _ := churnGrid()
	ex, other := grid[0][0], grid[0][1]
	w := NewWorker(0, WorkerConfig{})
	assign := encodeEntry(wire.MsgAssign, ex, churnSpec, nil, baseSum(frozenOf(ex)))
	assign.Text, assign.Seq = strings.Repeat("0", 64), 1
	base := func(of *moe.Expert, seq uint64) *wire.Message {
		return &wire.Message{Type: wire.MsgBase, Layer: 0, Expert: 0, Seq: seq, Tensors: frozenOf(of)}
	}

	if reply, _ := w.handleAt(assign, 0); reply.Type != wire.MsgBaseMiss {
		t.Fatalf("keyed install on a storeless worker: %v %q, want a base miss", reply.Type, reply.Text)
	}
	if reply, _ := w.handleAt(base(other, 2), 0); reply.Type != wire.MsgError || w.NumExperts() != 0 {
		t.Fatalf("another expert's base: %v, %d experts; want a refusal and none installed", reply.Type, w.NumExperts())
	}
	if reply, _ := w.handleAt(base(ex, 3), 0); reply.Type != wire.MsgError {
		t.Fatalf("a base after the refusal dropped the kept delta: %v, want a refusal", reply.Type)
	}
	if reply, _ := w.handleAt(assign, 0); reply.Type != wire.MsgBaseMiss {
		t.Fatalf("second keyed install: %v", reply.Type)
	}
	reply, _ := w.handleAt(base(ex, 4), 0)
	if reply.Type != wire.MsgAck || reply.Seq != 4 || w.NumExperts() != 1 {
		t.Fatalf("the right base: %v seq %d (%q), %d experts; want an ack of seq 4 and the expert installed", reply.Type, reply.Seq, reply.Text, w.NumExperts())
	}
	w.mu.RLock()
	got := w.experts[ex.ID]
	w.mu.RUnlock()
	for i, p := range ex.Params() {
		if !testutil.BitEqualSlices(p.Value.Data, got.Params()[i].Value.Data) {
			t.Fatalf("installed parameter %d differs from the expert shipped", i)
		}
	}
}
