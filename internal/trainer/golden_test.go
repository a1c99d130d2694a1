package trainer

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/moe"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// updateGolden rewrites testdata/finetune_d128.golden from the current
// build. The file was captured on the parent of the GEMM-microkernel
// change (commit 6f7e835, scalar row kernels); rewriting it is a re-pin
// of the reference series and needs the justification ROADMAP asks of one.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/finetune_d128.golden from this build")

const (
	goldenPath  = "testdata/finetune_d128.golden"
	goldenSteps = 25
)

// goldenRun fine-tunes the step benchmark's compute geometry (d=128,
// h=352, L=2, E=8, top-2, LoRA r=8, 4×32 tokens; the seeds stepbench
// derives from -seed 1) in-process for goldenSteps steps and renders the
// loss series and the first step's gradient checksums as the golden
// file's lines.
func goldenRun(t *testing.T) []string {
	t.Helper()
	cfg := moe.Config{Vocab: data.VocabSize, D: 128, Heads: 4, Hidden: 352, Layers: 2, Experts: 8, TopK: 2}
	rng := rand.New(rand.NewSource(1))
	model := moe.NewModel(cfg, rng, true)
	grid := moe.NewExpertGrid(cfg, rng, true)
	PrepareForFinetune(model, grid, LoRAConfig{Rank: 8, Alpha: 16, Seed: 2})
	exec := model.BindLocalExperts(grid)
	ft := NewLocalFinetuner(model, exec, data.NewBatcher(data.WikiText(20000), 4, 32, 3))

	var lines []string
	for s := 0; s < goldenSteps; s++ {
		loss, err := ft.Step()
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		lines = append(lines, fmt.Sprintf("loss %02d %016x", s, math.Float64bits(loss)))
		if s == 0 {
			lines = append(lines,
				fmt.Sprintf("grad backbone %016x", gradChecksum(ft.Backbone)),
				fmt.Sprintf("grad experts %016x", gradChecksum(nn.CollectTrainable(exec.Params()))))
		}
	}
	return lines
}

// gradChecksum is FNV-1a over the bit patterns of every gradient element,
// in parameter order: any single flipped bit changes it.
func gradChecksum(params []*nn.Param) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range params {
		for _, v := range p.Grad.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestFinetuneMatchesParentGolden pins the tensor engine's numerics
// against bits captured before the GEMM kernels were replaced: the loss
// series and one step's LoRA gradients must come out bit-for-bit at every
// parallel degree. stepbench's loss_check recomputes its reference in the
// same binary, so a kernel that changed bits everywhere would pass it;
// this file cannot be fooled that way. (Run it with -tags purego for the
// portable kernel body.)
func TestFinetuneMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The spec lets a compiler fuse x*y+z; arm64, ppc64le, s390x and
		// riscv64 do, in nn's elementwise loops as well as here.
		t.Skip("golden bits were captured on amd64, where Go never fuses multiply-add")
	}
	if *updateGolden {
		out := "# 25-step local fine-tuning loss series and step-0 gradient checksums at the step\n" +
			"# benchmark's compute geometry; math.Float64bits in hex. See golden_test.go.\n" +
			strings.Join(goldenRun(t), "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}

	t.Cleanup(func() {
		tensor.SetParallelism(0)
		tensor.SetParallelThreshold(0)
	})
	for _, degree := range []int{1, 2, 3} {
		tensor.SetParallelism(degree)
		// Threshold 1 sends every kernel that can split down the
		// parallel path, not only the few above the default cut-over.
		tensor.SetParallelThreshold(1)
		got := goldenRun(t)
		if len(got) != len(want) {
			t.Fatalf("degree %d: %d lines, golden has %d", degree, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degree %d: got %q, golden %q", degree, got[i], want[i])
			}
		}
	}
}
