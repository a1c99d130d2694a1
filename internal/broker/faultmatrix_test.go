package broker

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/moe"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestFaultMatrix drives every broker operation class through every
// Faulty failure mode on one worker's connection and checks the
// contract: absorbable faults (delay, duplicate delivery) succeed;
// fatal faults (drop, abrupt close, one-way partitions) surface the
// matching transport sentinel without hanging and without disturbing
// the healthy worker. Deterministic: every fault fires with
// probability 1 or at an armed send count. Forward and backward are
// K-expert dispatch frames, so a duplicated delivery is a duplicated
// frame: the duplicate/backward cell additionally checks every expert's
// snapshot and gradients against a duplicate-free run, bit for bit — no
// gradient may be accumulated twice.
func TestFaultMatrix(t *testing.T) {
	defer testutil.VerifyNoLeaks(t, "repro/internal/broker", "repro/internal/transport")

	type opCase struct {
		name string
		run  func(t *testing.T, x *Executor) error
	}
	cfg := testConfig()
	forwardBatches := func() map[int]*tensor.Tensor {
		b := map[int]*tensor.Tensor{}
		for e := 0; e < cfg.Experts; e++ {
			b[e] = tensor.Full(0.25, 2, cfg.D)
		}
		return b
	}
	ops := []opCase{
		{"forward", func(t *testing.T, x *Executor) error {
			_, err := x.ForwardExperts(0, forwardBatches())
			return err
		}},
		{"backward", func(t *testing.T, x *Executor) error {
			_, err := x.BackwardExperts(0, forwardBatches())
			return err
		}},
		{"control", func(t *testing.T, x *Executor) error {
			return x.ZeroGrads()
		}},
	}

	type faultCase struct {
		name     string
		plan     transport.FaultPlan
		armClose bool
		// wantErr nil means the operation must succeed; otherwise the
		// returned error must satisfy errors.Is against it.
		wantErr error
	}
	faults := []faultCase{
		{"delay", transport.FaultPlan{DelayProb: 1, MaxDelay: 2 * time.Millisecond}, false, nil},
		{"duplicate", transport.FaultPlan{DupProb: 1}, false, nil},
		{"drop", transport.FaultPlan{DropProb: 1}, false, transport.ErrTimeout},
		{"close", transport.FaultPlan{}, true, transport.ErrClosed},
		{"partition-send", transport.FaultPlan{PartitionSend: true}, false, transport.ErrTimeout},
		{"partition-recv", transport.FaultPlan{PartitionRecv: true}, false, transport.ErrTimeout},
	}

	// deploy distributes the grid over clean connections and runs the
	// forward that leaves cached activations on the workers (backward
	// needs them); the workers are torn down when the subtest ends.
	deploy := func(t *testing.T) (*LocalDeployment, *Executor) {
		_, grid := buildFinetuneSetup(cfg, 23)
		dep := StartLocalWorkers(2, WorkerConfig{Optimizer: OptSGD})
		t.Cleanup(func() {
			dep.Close()
			_ = dep.WaitAll()
		})
		setup := NewExecutor(dep.Conns, roundRobinAssignment(cfg, 2))
		if err := setup.Distribute(grid, ExpertSpec{D: cfg.D, Hidden: cfg.Hidden, LoRARank: 2, LoRAAlpha: 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := setup.ForwardExperts(0, forwardBatches()); err != nil {
			t.Fatal(err)
		}
		return dep, setup
	}

	for _, fc := range faults {
		for _, oc := range ops {
			t.Run(fc.name+"/"+oc.name, func(t *testing.T) {
				dep, setup := deploy(t)

				// Interpose the fault on worker 1 for the operation under test.
				faulty := transport.NewFaulty(dep.Conns[1], 5, fc.plan)
				if fc.armClose {
					faulty.ArmClose(0)
				}
				exec := NewExecutor([]transport.Conn{dep.Conns[0], faulty}, setup.Assignment())
				exec.RequestTimeout = 15 * time.Millisecond

				err := oc.run(t, exec)
				if fc.wantErr == nil {
					if err != nil {
						t.Fatalf("%s under %s must succeed, got %v", oc.name, fc.name, err)
					}
				} else if !errors.Is(err, fc.wantErr) {
					t.Fatalf("%s under %s = %v, want %v", oc.name, fc.name, err, fc.wantErr)
				}

				if fc.name == "duplicate" && oc.name == "backward" {
					refDep, ref := deploy(t)
					if err := oc.run(t, ref); err != nil {
						t.Fatal(err)
					}
					// A worker serves a connection's frames in order, so the
					// snapshot round's reply comes after the duplicate was
					// served.
					want, err := ref.SnapshotExperts(0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := exec.SnapshotExperts(0)
					if err != nil {
						t.Fatal(err)
					}
					for i, en := range want.Entries {
						for j, ts := range en.Tensors {
							if !testutil.BitEqualSlices(got.Entries[i].Tensors[j].Data, ts.Data) {
								t.Fatalf("L%d/E%d tensor %d differs from the duplicate-free run's", en.Layer, en.Expert, j)
							}
						}
					}
					wantG, gotG := hostedGrads(refDep), hostedGrads(dep)
					if !slices.ContainsFunc(wantG, func(g float64) bool { return g != 0 }) {
						t.Fatal("the reference gradients are all zero — the check would be vacuous")
					}
					if !testutil.BitEqualSlices(gotG, wantG) {
						t.Fatal("the gradients differ from the duplicate-free run's after a duplicated backward frame (accumulated twice?)")
					}
				}

				// The healthy worker keeps serving regardless.
				if out, err := exec.ForwardExperts(0, map[int]*tensor.Tensor{0: tensor.Zeros(1, cfg.D)}); err != nil || out[0] == nil {
					t.Fatalf("healthy worker stopped serving after %s/%s: %v", fc.name, oc.name, err)
				}
			})
		}
	}
}

// hostedGrads reads the gradients of every expert dep's workers host, in
// (layer, expert) order and each expert's parameter order, back to back:
// the state no wire round returns. Each worker is read under its lock.
func hostedGrads(dep *LocalDeployment) []float64 {
	grads := make(map[moe.ExpertID][]float64)
	var ids []moe.ExpertID
	for _, w := range dep.Workers {
		w.mu.RLock()
		for id, ex := range w.experts {
			ids = append(ids, id)
			for _, p := range ex.Params() {
				if p.Grad != nil { // a frozen parameter has none
					grads[id] = append(grads[id], p.Grad.Data...)
				}
			}
		}
		w.mu.RUnlock()
	}
	slices.SortFunc(ids, func(a, b moe.ExpertID) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Expert, b.Expert))
	})
	var out []float64
	for _, id := range ids {
		out = append(out, grads[id]...)
	}
	return out
}
