package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replace"
	"repro/internal/testutil"
	"repro/internal/trainer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// prelude builds the deterministic pre-Attach state every test of the one
// assembly path shares: prepared checkpoint, profiled statistics, and an
// instrumented Options over the 3-device test topology.
func prelude(t *testing.T) (*moe.Model, [][]*moe.Expert, Options, *data.Corpus) {
	t.Helper()
	m, grid, cfg := buildCheckpoint(t)
	lora := trainer.LoRAConfig{Rank: 2, Alpha: 4, Seed: 5}
	trainer.PrepareForFinetune(m, grid, lora)
	corpus := data.Shakespeare(4000)
	stats, err := trainer.Profile(m, corpus, 4, 2, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	topo := testTopology()
	h := obs.NewHandle(obs.Config{Workers: topo.NumWorkers(), Layers: cfg.Layers, Experts: cfg.Experts})
	return m, grid, Options{Topo: topo, Stats: stats, LoRA: lora, Obs: h}, corpus
}

// supervised builds the supervisor and an armed controller whose drift
// trigger is out of reach (only an explicit request starts a re-solve),
// then returns the fine-tuner with the default step boundary.
func supervised(t *testing.T, sys *System, corpus *data.Corpus) (*trainer.Finetuner, *replace.Controller) {
	t.Helper()
	sys.Supervisor(broker.SupervisorConfig{})
	ctrl, err := sys.ReplaceController(replace.Config{DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := sys.Finetuner(data.NewBatcher(corpus, 2, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	return ft, ctrl
}

// tcpWorkers starts n Expert Managers behind real loopback listeners and
// returns a dialer for one master's worth of connections. A worker keeps
// its experts across connections: when a master's connection drops it
// accepts the next one — what a restarted master re-attaches to.
func tcpWorkers(t *testing.T, n int) func() []transport.Conn {
	t.Helper()
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // registered first, so it runs after the listeners close
	addrs := make([]string, n)
	for i := range addrs {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs[i] = l.Addr()
		w := broker.NewWorker(i, broker.DefaultWorkerConfig())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := l.Accept()
				if err != nil {
					return // listener closed
				}
				err = w.Serve(c)
				_ = c.Close()
				if err == nil {
					return // MsgShutdown
				}
			}
		}()
	}
	return func() []transport.Conn {
		conns := make([]transport.Conn, n)
		for i, addr := range addrs {
			c, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			conns[i] = c
		}
		return conns
	}
}

// TestAttachOverTCPMatchesDeploy: the assembly is the same whatever
// carries the frames — Attach over real TCP workers, with supervisor,
// controller and the default step boundary, trains bit-identically to
// chan-pipe Deploy — and a second Attach to the same workers that does
// not Distribute (the -resume shape) sends them nothing.
func TestAttachOverTCPMatchesDeploy(t *testing.T) {
	const steps = 8

	m, grid, opts, corpus := prelude(t)
	ref, err := Deploy(m, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refFT, _ := supervised(t, ref, corpus)
	if err := refFT.Run(steps, nil); err != nil {
		t.Fatal(err)
	}

	dial := tcpWorkers(t, opts.Topo.NumWorkers())
	m, grid, opts, corpus = prelude(t)
	conns := dial()
	sys, err := Attach(m, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Distribute(grid); err != nil {
		t.Fatal(err)
	}
	ft, _ := supervised(t, sys, corpus)
	if err := ft.Run(steps, nil); err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqualSlices(refFT.Losses.Values, ft.Losses.Values) {
		t.Fatalf("TCP Attach diverged from chan-pipe Deploy:\ndeploy = %v\nattach = %v",
			refFT.Losses.Values, ft.Losses.Values)
	}
	// One restore point before the first step, then one per boundary.
	if got := sys.Exec.Counters.Get(obs.Snapshots); got != steps+1 {
		t.Fatalf("took %d snapshots over %d steps, want the first step's restore point and one per boundary", got, steps)
	}

	want, err := sys.Exec.SnapshotExperts(steps - 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns { // the master "dies"; the workers keep their experts
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	m, _, opts, _ = prelude(t)
	again, err := Attach(m, dial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.Exec.SnapshotExperts(steps - 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, en := range want.Entries {
		for j, ts := range en.Tensors {
			if !testutil.BitEqualSlices(got.Entries[i].Tensors[j].Data, ts.Data) {
				t.Fatalf("L%d/E%d tensor %d changed across a re-Attach", en.Layer, en.Expert, j)
			}
		}
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}

// killSwitch wraps a worker's connection in the kill table. Counting
// from arm — or, with after set, from the send that killed after's
// worker — it severs the connection at send number killAt or, when killOn
// is set, at its first send of that type once it has sent killAt
// MsgSteps: that frame is not delivered and the worker's serve loop
// ends, as if the process died just before it. It reports the reply to
// the loseAck-th MsgStep as transport.ErrTimeout once: a step the worker
// applied whose ack never arrived. It logs the type of every frame it
// counts.
type killSwitch struct {
	transport.Conn
	armed   bool
	killAt  int          // -1: never
	killOn  wire.MsgType // 0: kill by send number
	after   *killSwitch
	fired   atomic.Bool // read by the switch that waits on it
	loseAck int         // 0: never
	sent    []wire.MsgType
	steps   int
	dropAck bool
}

func (k *killSwitch) Send(m *wire.Message) error {
	if !k.armed || k.after != nil && !k.after.fired.Load() {
		return k.Conn.Send(m)
	}
	if k.killOn == 0 && len(k.sent) == k.killAt || k.killOn == m.Type && k.steps >= k.killAt {
		k.armed = false
		k.fired.Store(true)
		_ = k.Conn.Close()
		return transport.ErrClosed
	}
	k.sent = append(k.sent, m.Type)
	if m.Type == wire.MsgStep {
		k.steps++
		k.dropAck = k.steps == k.loseAck
	}
	return k.Conn.Send(m)
}

func (k *killSwitch) Recv() (*wire.Message, error) {
	m, err := k.Conn.Recv()
	if err == nil && k.dropAck {
		k.dropAck = false
		return nil, fmt.Errorf("MsgStep ack lost: %w", transport.ErrTimeout)
	}
	return m, err
}

// killRun is one row of the kill table: three in-process AdamW workers
// on topo behind core.Attach with the supervisor, controller and default
// step boundary, six steps, and worker n's connection behind kills[n],
// armed once the first step's restore point is taken. It returns the
// losses, the steps the run's hook saw, the system and the run's error.
func killRun(t *testing.T, topo cluster.Topology, kills map[int]*killSwitch) ([]float64, []int, *System, error) {
	return killRunWith(t, topo, kills, baseSetup{})
}

// baseSetup is a kill-table row's base stores. The master and the
// workers share a fresh store directory, so no row reads what another
// run left on the host; spoil, if set, runs on each of its base files
// once the experts are distributed. With noStore the workers have no
// store, so every keyed install of an expert a worker does not host
// misses and is followed by its base.
type baseSetup struct {
	noStore bool
	spoil   func(t *testing.T, file string)
}

// killRunWith is killRun over the base stores st.
func killRunWith(t *testing.T, topo cluster.Topology, kills map[int]*killSwitch, st baseSetup) ([]float64, []int, *System, error) {
	t.Helper()
	const steps = 6
	m, grid, opts, corpus := prelude(t)
	opts.Topo = topo
	dir := filepath.Join(t.TempDir(), "bases")
	wcfg := broker.DefaultWorkerConfig()
	wcfg.BaseDir = dir
	if st.noStore {
		wcfg.BaseDir = ""
	}
	dep := broker.StartLocalWorkers(3, wcfg)
	conns := append([]transport.Conn(nil), dep.Conns...)
	for n, k := range kills {
		k.Conn, conns[n] = conns[n], k
	}
	sys, err := Attach(m, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Exec.BaseDir = dir
	if err := sys.Distribute(grid); err != nil {
		t.Fatal(err)
	}
	if st.spoil != nil {
		files, _ := filepath.Glob(filepath.Join(dir, "*.base"))
		if len(files) == 0 {
			t.Fatal("setup: Distribute stored no base")
		}
		for _, f := range files {
			st.spoil(t, f)
		}
	}
	ft, _ := supervised(t, sys, corpus)
	for _, k := range kills {
		k.armed = true
	}
	var hooked []int
	runErr := ft.Run(steps, func(step int, _ float64) { hooked = append(hooked, step) })
	for _, k := range kills {
		k.armed = false
	}
	if err := sys.Close(); err != nil && runErr == nil {
		t.Fatal(err)
	}
	dep.Close()
	for n, err := range dep.WaitAll() {
		if err != nil && kills[n] == nil && runErr == nil {
			t.Fatalf("live worker %d exited with %v", n, err)
		}
	}
	return ft.Losses.Values, hooked, sys, runErr
}

// TestSystemFailoverBitIdentical is the kill table of retry-is-resume: a
// failure anywhere in step s — its boundary's snapshot round included —
// restores the held state of boundary s−1 (backbone, AdamW, experts, data
// cursor, drift, controller) and re-drives s. Worker 2 is killed at each
// of its sends across steps 0–5 in turn, and in one more row it loses one
// MsgStep ack without dying. Every row must train the failure-free loss
// series to the bit with one step retry (and one failover when the worker
// died), its hook seeing each step once. Two more rows: worker 2 dies in
// boundary 2's snapshot round and worker 0 during that step's retry, so
// the held state must survive a failed attempt (two failovers, two
// retries, onto worker 1, which can host all 8 experts); and worker 2
// dies in the first step's restore point, which setup reports. The base
// rows run the failover's restore through the base store's miss path:
// with every base file missing or corrupt (one flipped byte), worker 2's
// experts reach the survivors as a delta, a miss and then their bases,
// and train on to the bit; and with storeless workers, worker 2 dies in
// the miss round
// of the restore after worker 0's death, which one more failover and
// retry absorb.
func TestSystemFailoverBitIdentical(t *testing.T) {
	table := cluster.Uniform(3, 1, 4, 100*cluster.GB, 1*cluster.GB) // two survivors host all 8 experts
	probe := &killSwitch{killAt: -1}
	clean, _, ref, err := killRun(t, table, map[int]*killSwitch{2: probe})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worker 2's sends over steps 0-5: %v", probe.sent)
	type row struct {
		name               string
		topo               cluster.Topology
		kills              map[int]*killSwitch
		failovers, retries int64
		bases              baseSetup
	}
	var rows []row
	for i, typ := range probe.sent {
		rows = append(rows, row{fmt.Sprintf("kill%02d_%v", i, typ), table, map[int]*killSwitch{2: {killAt: i}}, 1, 1, baseSetup{}})
	}
	rows = append(rows, row{"lost_step_ack", table, map[int]*killSwitch{2: {killAt: -1, loseAck: 3}}, 0, 1, baseSetup{}})
	sole := cluster.Uniform(3, 1, 4, 100*cluster.GB, 1*cluster.GB)
	sole.Devices[1].Capacity = 8
	first := &killSwitch{killOn: wire.MsgSnapshot, killAt: 3}
	rows = append(rows, row{"second_death_in_retry", sole, map[int]*killSwitch{
		2: first, 0: {killOn: wire.MsgForwardMulti, after: first},
	}, 2, 2, baseSetup{}})
	missing := baseSetup{spoil: func(t *testing.T, f string) {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}}
	corrupt := baseSetup{spoil: func(t *testing.T, f string) {
		b, err := os.ReadFile(f)
		if err == nil {
			b[len(b)/3] ^= 0x01
			err = os.WriteFile(f, b, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
	}}
	rows = append(rows,
		row{"base_files_missing", table, map[int]*killSwitch{2: {killOn: wire.MsgForwardMulti, killAt: 3}}, 1, 1, missing},
		row{"base_files_corrupt", table, map[int]*killSwitch{2: {killOn: wire.MsgForwardMulti, killAt: 3}}, 1, 1, corrupt})
	dies := &killSwitch{killOn: wire.MsgForwardMulti, killAt: 2}
	rows = append(rows, row{"death_in_miss_round", sole, map[int]*killSwitch{
		0: dies, 2: {killOn: wire.MsgBase, after: dies},
	}, 2, 1, baseSetup{noStore: true}})
	steps := []int{0, 1, 2, 3, 4, 5}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			losses, hooked, sys, err := killRunWith(t, r.topo, r.kills, r.bases)
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.BitEqualSlices(clean, losses) {
				t.Fatalf("the retry perturbed the loss series:\nclean = %v\ngot   = %v", clean, losses)
			}
			for l, row := range ref.Obs.Drift.Phat() {
				if got := sys.Obs.Drift.Phat()[l]; !testutil.BitEqualSlices(row, got) {
					t.Fatalf("layer %d's routing estimate P̂ = %v after the retry, want the failure-free %v", l, got, row)
				}
			}
			if !slices.Equal(hooked, steps) {
				t.Fatalf("the hook saw steps %v, want each of %v once", hooked, steps)
			}
			if sys.Obs.Steps() != ref.Obs.Steps() {
				t.Fatalf("counted %d steps, want the failure-free %d", sys.Obs.Steps(), ref.Obs.Steps())
			}
			failovers, retries := sys.Exec.Counters.Get(obs.WorkerFailovers), sys.Exec.Counters.Get(obs.StepRetries)
			if failovers != r.failovers || retries != r.retries {
				t.Fatalf("%d failover(s) and %d step retries, want %d and %d", failovers, retries, r.failovers, r.retries)
			}
			if misses := sys.Exec.Counters.Get(obs.BaseMisses); (r.bases.spoil != nil || r.bases.noStore) != (misses > 0) {
				t.Fatalf("%d base misses under %+v", misses, r.bases)
			}
		})
	}
	t.Run("kill_first_restore_point", func(t *testing.T) {
		defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")
		m, grid, opts, corpus := prelude(t)
		dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), broker.DefaultWorkerConfig())
		conns := append([]transport.Conn(nil), dep.Conns...)
		conns[2] = &killSwitch{Conn: conns[2], armed: true, killOn: wire.MsgSnapshot}
		sys, err := Attach(m, conns, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Distribute(grid); err != nil {
			t.Fatal(err)
		}
		sys.Supervisor(broker.SupervisorConfig{})
		if _, err := sys.Finetuner(data.NewBatcher(corpus, 2, 16, 7)); err == nil || !strings.Contains(err.Error(), "first restore point") {
			t.Fatalf("setup = %v, want the first restore point's failure", err)
		}
		_ = sys.Close()
		dep.Close()
		dep.WaitAll()
	})
}

// TestSystemFailoverDuringMigration: a worker that dies while boundary
// 2's controller migrates experts (here: releasing a moved expert's
// source copy) fails that boundary like any other failure of step 2. The
// held state of boundary 1 is restored over the survivors, step 2 is
// re-driven and the run trains the failure-free loss series to the bit.
func TestSystemFailoverDuringMigration(t *testing.T) {
	run := func(k *killSwitch) ([]float64, *System) {
		m, grid, opts, corpus := prelude(t)
		opts.Topo = cluster.Uniform(3, 1, 4, 100*cluster.GB, 1*cluster.GB)
		opts.Strategy = placement.Sequential{} // non-optimized, so the re-solve has moves to make
		dep := broker.StartLocalWorkers(3, broker.DefaultWorkerConfig())
		t.Cleanup(func() { dep.Close(); dep.WaitAll() })
		conns := append([]transport.Conn(nil), dep.Conns...)
		k.Conn, conns[2] = conns[2], k
		sys, err := Attach(m, conns, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Distribute(grid); err != nil {
			t.Fatal(err)
		}
		ft, ctrl := supervised(t, sys, corpus)
		ft.OnStep = func(step int) error {
			if step == 2 {
				ctrl.RequestResolve("test")
				k.armed = true
			}
			return sys.StepBoundary(step)
		}
		if err := ft.Run(6, nil); err != nil {
			t.Fatal(err)
		}
		return ft.Losses.Values, sys
	}
	clean, ref := run(&killSwitch{killAt: -1})
	if n := ref.Exec.Counters.Get(obs.ReplaceMigrations); n == 0 {
		t.Fatal("setup: the requested re-solve migrated nothing")
	}
	losses, sys := run(&killSwitch{killOn: wire.MsgFetch})
	if !testutil.BitEqualSlices(clean, losses) {
		t.Fatalf("the retry perturbed the loss series:\nclean = %v\ngot   = %v", clean, losses)
	}
	if failovers, retries := sys.Exec.Counters.Get(obs.WorkerFailovers), sys.Exec.Counters.Get(obs.StepRetries); failovers != 1 || retries != 1 {
		t.Fatalf("%d failover(s) and %d step retries, want 1 and 1", failovers, retries)
	}
}

// TestStepBoundarySnapshotsBeforeController pins the boundary order: with
// a re-solve requested that would move experts and a connection armed to
// close on its next frame, the boundary must fail in the snapshot round,
// before the controller is consulted and with the assignment unmoved. It
// fails if the snapshot is moved after the controller.
func TestStepBoundarySnapshotsBeforeController(t *testing.T) {
	m, grid, opts, corpus := prelude(t)
	opts.Strategy = placement.Sequential{} // non-optimized, so the re-solve has moves to make
	dep := broker.StartLocalWorkers(opts.Topo.NumWorkers(), broker.DefaultWorkerConfig())
	t.Cleanup(dep.Close)
	conns := append([]transport.Conn(nil), dep.Conns...)
	faulty := transport.NewFaulty(conns[1], 7, transport.FaultPlan{})
	conns[1] = faulty
	sys, err := Attach(m, conns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Distribute(grid); err != nil {
		t.Fatal(err)
	}
	_, ctrl := supervised(t, sys, corpus)

	before := sys.Exec.Assignment()
	lp, err := placement.LocalityLP{}.Place(sys.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if moves, err := placement.Diff(before, lp); err != nil || len(moves) == 0 {
		t.Fatalf("setup: a re-solve must have experts to move (moves %v, err %v)", moves, err)
	}

	ctrl.RequestResolve("test")
	faulty.ArmClose(0)
	if err := sys.StepBoundary(0); err == nil {
		t.Fatal("boundary succeeded although the snapshot round lost a connection")
	}
	if checks := sys.Exec.Counters.Get(obs.ReplaceChecks); checks != 0 {
		t.Fatalf("controller consulted %d time(s) (%q) before the snapshot succeeded", checks, ctrl.LastReason)
	}
	if moves, err := placement.Diff(before, sys.Exec.Assignment()); err != nil || len(moves) != 0 {
		t.Fatalf("assignment moved without a restore point (moves %v, err %v)", moves, err)
	}
}

// TestDeployedSystemScrapesRecovery: every assembled system carries the
// recovery meter and, once a supervisor exists, its rejoin queue — a
// core-deployed system used to scrape neither.
func TestDeployedSystemScrapesRecovery(t *testing.T) {
	m, grid, opts, corpus := prelude(t)
	sys, err := Deploy(m, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ft, _ := supervised(t, sys, corpus)
	if err := ft.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf, sys.MetricsSource()); err != nil {
		t.Fatal(err)
	}
	// Two snapshots: the first step's restore point and its boundary's.
	for _, want := range []string{"vela_recovery_snapshots_total 2\n", "vela_workers_rejoining 0\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("scrape lacks %q", want)
		}
	}
}
