# Development gates for the VELA reproduction. `make check` is the
# pre-merge bar: the broker's concurrent hot path must stay race-clean.

GO ?= go

# RACE=0 skips the race-detector jobs for quick local iteration on
# machines where cgo/race is unavailable or slow; CI always runs them.
RACE ?= 1

.PHONY: build test vet lint loc purego race race-core bench bench-check bench-wire bench-all chaos check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet's asmdecl pass checks every assembly file (internal/cpu's probe,
# internal/tensor/gemm_amd64.s and sigmoid_amd64.s,
# internal/nn/adamw_amd64.s, internal/wire/half_amd64.s) against its
# Go declarations (argument offsets, frame size), so the assembly needs no
# gate of its own.
vet:
	$(GO) vet ./...

# The portable bodies, forced by the purego build tag (a build-time test
# seam: on amd64 the default build never runs them): the GEMM tile (its
# math.FMA chains), the scalar sigmoid and the scalar AdamW update
# (TestAdamWBodiesBitIdentical runs it alone) over the packages whose numerics
# they decide — the kernel oracle, the layer and model tests, and the
# pinned golden loss series — and the binary16 codec over wire (its bit-pinning
# tests against the reference converter) and broker (TestChanTCPParity,
# where the chan pipe's Quantize and the TCP frame codec must agree);
# internal/cpu checks every flag reads false. The panel packers
# (packPanel, packPanelT) are plain Go under either tag, so the oracle
# table covers a transposed B's row-packed path on every body. The default
# build's tensor tests run each GEMM body the CPU has (portable, AVX2,
# AVX-512) themselves.
purego:
	$(GO) test -tags purego ./internal/cpu ./internal/tensor ./internal/nn ./internal/moe ./internal/trainer \
		./internal/wire ./internal/broker

# velavet: the repo's own analyzer suite (internal/lint, driven by
# cmd/velavet). Enforces the concurrency, wire, and numeric invariants
# DESIGN.md §10 documents; prints nothing when clean and exits non-zero
# on any finding — a //lint:ignore that is reasonless or suppresses
# nothing is one. The driver binary is cached under bin/ and rebuilt only
# when the analyzer sources change, so repeated `make lint` pays one
# whole-module analysis, not a build.
VELAVET := bin/velavet
VELAVET_SRC := $(shell find cmd/velavet internal/lint -name '*.go' -not -path '*/testdata/*') go.mod

$(VELAVET): $(VELAVET_SRC)
	$(GO) build -o $(VELAVET) ./cmd/velavet

lint: $(VELAVET)
	$(VELAVET) ./...

# The size ledger "net-negative" claims in CHANGES.md are made in:
# non-test Go outside bench/ and testdata/, per package and in total, as
# raw lines and code-only lines (blank and //-comment lines dropped), and
# the assembly (.s) beside it on a line of its own, counted the same way.
# Lines moved into fixtures, goldens or tests are not counted as removed.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.*' \
		| xargs awk '{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); raw[d]++; traw++; \
			if ($$0 !~ /^[ \t]*($$|\/\/)/) { code[d]++; tcode++ } } \
			END { printf "%-28s %7s %7s\n", "package", "raw", "code"; fflush(); \
			for (d in raw) printf "%-28s %7d %7d\n", d, raw[d], code[d] | "sort"; close("sort"); \
			printf "%-28s %7d %7d\n", "total", traw, tcode }'
	@find . -name '*.s' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.*' \
		| xargs awk '{ raw++; if ($$0 !~ /^[ \t]*($$|\/\/)/) code++ } \
			END { printf "%-28s %7d %7d\n", "assembly (.s)", raw, code }'

# The concurrent runtime packages (the master's per-worker rounds, the
# worker's expert fan-out, transport) plus everything else under the race
# detector.
race:
ifeq ($(RACE),0)
	@echo "race: skipped (RACE=0)"
else
	$(GO) test -race ./...
endif

# Focused race gate over the packages where the concurrency actually
# lives: broker (master rounds, worker, supervisor), replace (live
# re-placement controller), transport, and the compute side — tensor (the
# fork-join team under every kernel and fan-out), nn, and moe, whose local
# executor runs a layer's experts side by side — plus core's EP tests,
# whose rank goroutines share workers, an all-reduce rendezvous and an
# abort. Uncached (-count=1) so a
# racy interleaving cannot hide behind Go's test result cache; the team's
# own tests run three times more, each bounded by a deadline, so a lost
# wake-up fails here instead of showing up as benchmark noise. The
# explicit -timeout does the same for a wedged round: the run fails in
# minutes, not at go test's 10-minute default per package.
race-core:
ifeq ($(RACE),0)
	@echo "race-core: skipped (RACE=0)"
else
	$(GO) test -race -count=1 -timeout 5m ./internal/broker/... ./internal/replace/... ./internal/transport/... \
		./internal/moe/... ./internal/tensor/... ./internal/nn/...
	$(GO) test -race -count=3 -timeout 5m -run 'Fanout|Caller|Helper|Parallel' ./internal/tensor
	$(GO) test -race -count=1 -timeout 5m -run 'EP' ./internal/core
endif

# Tensor-engine benchmark gate: runs the compute hot-path benches
# (kernels, layers, and moe's model, block and cold-expert benches —
# BenchmarkExpertsCold is one layer's 16 experts on one core at stepbench's
# compute geometry) with allocation counts and writes the machine-readable
# summary to BENCH_tensor.json. -run='^$$' skips tests so the artifact is
# pure bench data; benchjson mirrors the human-readable stream to stderr.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/tensor ./internal/nn ./internal/moe \
		| $(GO) run ./cmd/benchjson > BENCH_tensor.json

# Wire codec gate: encode/decode throughput per encoding (fp64, fp16,
# int8) plus the bytes and frames one layer's dispatch puts on the wire
# at the paper geometry. The EncodeFrame/DecodeFrame entries in
# BENCH_wire.json must show 0 allocs/op (steady-state pooled codec),
# and the StepBytes bytes/step metrics back the fp16 ≤ 30% / int8 ≤ 18%
# of fp64 wire-volume claims. The two broker entries are the rounds that
# move expert state, over loopback TCP at stepbench churn's geometry: one
# snapshot of all 16 experts and one migration, with their wire_bytes/op
# (delta entries: a snapshot carries no frozen weight, a migration
# carries them once).
bench-wire:
	{ $(GO) test -run='^$$' -bench='EncodeFrame|DecodeFrame|StepBytes' -benchmem ./internal/wire; \
	  $(GO) test -run='^$$' -bench='SnapshotExperts|Migrate$$' -benchmem ./internal/broker; } \
		| $(GO) run ./cmd/benchjson > BENCH_wire.json

# Every benchmark of every package. The paper's figures are not
# benchmarks: `go run ./cmd/velabench -fig all` prints them.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# stepbench lives in its own module (bench/go.mod, replace repro => ../)
# that the root `go build ./... && go test ./...` never compiles; this
# leg catches a root-API change that breaks it (~2 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fault-tolerance gate: the chaos/failover acceptance suite — fault
# matrix, supervisor failover (mid-step and probe-detected deaths, and
# the whole system's bit-identical failover through core.Attach), crash-
# resume across a SIGKILLed child process (torn-generation fallback,
# failover, rejoin), transport fault injection, dead-worker
# migrate/fetch, the counter table the recovery paths report through, and
# the checkpoint layer's own fault matrix (RunStore corruption/IO-fault
# fallback, malformed-input rejection, the decoders' fuzz seed corpora) —
# race-enabled and rerun from scratch every time.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Fault|Failover|Supervisor|Repair|Recover|Dead|Probe|Counters|ExpertSnapshot|RunStore|DecodeRun|CrashResume|Contract' \
		./internal/broker ./internal/transport ./internal/placement \
		./internal/checkpoint ./internal/trainer ./internal/obs ./internal/core

# Pre-merge gate: vet + velavet + the bench module's vet/test + the
# portable-kernel pass + full race-enabled test suite (the race target covers internal/obs, so the
# tracer's striped ring and the lock-free histograms are exercised under
# the detector on every check), then the focused uncached race-core pass
# over broker/replace/transport/moe/tensor/nn and core's EP ranks. RACE=0
# skips both race jobs locally.
check: vet lint bench-check purego race race-core
