# Developer entry points. `make ci` is the gate every change must pass:
# gofmt + vet + build + full test suite + race detector over the concurrent
# packages + a one-iteration benchmark smoke to catch bit-rot in the
# bench harness without paying full bench time + two one-rep benchtab
# runs diffed against each other + a vet of the perfbench module against
# this tree.

GO ?= go

.PHONY: ci fmt vet perfbench-vet build test test-race bench-smoke bench-compare bench-sched bench-warm bench fuzz corpus corpus-short service-smoke tidy

ci: fmt vet perfbench-vet build test test-race bench-smoke bench-compare bench-sched bench-warm fuzz-short corpus-short service-smoke

# Fails when any tracked Go file is not gofmt-clean, listing the files.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench is a nested module that compiles against analysis.Options
# and Stats; vetting it here shows an API break before the benchmark
# runs.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages the parallel fixpoint engine touches: the sharded
# interner (rsg), the Exec-driven bucket reductions (rsrsg), the
# worker fan-out itself (analysis), the programs' once-computed
# induction sets and digests that concurrent runs share (ir), the
# shared append-only store, and the daemon that multiplexes requests
# over all of them. -short keeps the heavyweight kernels out of the
# instrumented run.
test-race:
	$(GO) test -race -short ./internal/rsg/ ./internal/rsrsg/ ./internal/ir/ ./internal/analysis/ ./internal/store/ ./internal/service/

# One iteration over the benchmark surfaces a change is most likely to
# rot: the digest, clone, freeze, join and compress micro-benches (the
# join and compress ones on a chain and on two ~100-link barneshut
# out-state graphs, and the reduction's join on those graphs, once
# answered by an operand and once built), the Figure-1 pipeline, the Barnes-Hut L1 macro cell, compiling the four
# kernels and a warm-started store-backed run, the RSRSG layer's bucket
# reductions over the Barnes-Hut L1 out-state graphs, plus a short run
# of the determinism suite (every worker count must stay bit-identical).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSignature|BenchmarkDigest|BenchmarkClone|BenchmarkFreeze|BenchmarkJoin|BenchmarkJoinWide|BenchmarkJoinSubsumed|BenchmarkCompressChain|BenchmarkCompressWide' -benchtime=1x ./internal/rsg/
	$(GO) test -run xxx -bench 'BenchmarkReduce|BenchmarkMergeDeltaBatch|BenchmarkAccumMergeDeltaDirty' -benchtime=1x ./internal/rsrsg/
	$(GO) test -run xxx -bench 'BenchmarkFigure1Pipeline|BenchmarkParallelBarnesHutL1_Workers1$$|BenchmarkCompileKernels|BenchmarkWarmRun' -benchtime=1x .
	$(GO) test -run TestParallelDeterminism -short -count=1 ./internal/analysis/

# Two one-rep benchtab runs of the same cells, each to its fixed point:
# the first writes a -json baseline to a temporary file, the second
# prints its per-cell time/alloc deltas against it with -compare. Both
# runs are the same code on the same machine, so the ratios show
# run-to-run noise, not a regression signal; the target exists to keep
# the harness and its -json -> -compare path exercised. Each run also
# measures the store-backed modes (-persist warm,edit): the populate
# pass, one store file per configuration and the tail-edit kernel.
bench-compare:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/benchtab" ./cmd/benchtab && \
	"$$tmp/benchtab" -kernels barneshut,matvec -levels 1 -reps 1 -workers 1 -persist cold,warm,edit -json "$$tmp/base.json" && \
	"$$tmp/benchtab" -kernels barneshut,matvec -levels 1 -reps 1 -workers 1 -persist cold,warm,edit -compare "$$tmp/base.json"

# Scheduler smoke gate (DESIGN.md §14): the Figure 1 list, matvec and
# Barnes-Hut must converge at L1 within absolute ceilings on visits and
# on component stabilization rounds.
bench-sched:
	$(GO) test -run TestSchedSmoke -count=1 ./internal/analysis/

# Persistent-store smoke: the Figure 1 list and Barnes-Hut through the
# cold -> warm -> one-statement-edit trajectory (DESIGN.md §13). Warm
# must do zero transfers; the edit must rerun only the changed
# statement's forward cone. -short keeps Barnes-Hut out of the CI run.
bench-warm:
	$(GO) test -run TestWarmStartSmoke -short -count=1 ./internal/benchprog/

# Full micro+macro benchmarks (minutes); REPRO_FULL_BENCH=1 for the
# unbounded Table 1 cells.
bench:
	$(GO) test -run xxx -bench . -benchtime=1x ./...

# Soundness fuzzing: randomized mini-C programs cross-validated against
# the concrete interpreter at L1/L2/L3, plus the regression corpus.
# Override the generator seed with FUZZ_SEED=N (the nightly job rotates
# it); a failure prints the command that replays the find, e.g.
#   go run ./cmd/shapetriage -gen free -genseed <N> -level 1 -runs 10 -seed <S>
# and adding -shrink distills it into internal/concrete/testdata/
# (DESIGN.md §11).
# `fuzz-short` is the CI slice: corpus sweep + a reduced fuzz pass.
.PHONY: fuzz-short
fuzz:
	FUZZ_SEED=$(FUZZ_SEED) $(GO) test -run 'TestFuzzSoundness|TestCorpusSoundness' -count=1 -v ./internal/concrete/

fuzz-short:
	FUZZ_SEED=$(FUZZ_SEED) $(GO) test -run 'TestFuzzSoundness|TestCorpusSoundness' -count=1 -short ./internal/concrete/

# Memory-safety verdict corpus: every expected-verdict task under
# internal/verdict/testdata/corpus must settle exactly its declared
# verdicts, the per-checker escalation tasks must escalate, and no SAFE
# claim may contradict the interpreter (DESIGN.md §12). `corpus` runs
# the full verdict suite verbosely plus the differential fuzz hook;
# `corpus-short` is the CI slice.
corpus:
	FUZZ_SEED=$(FUZZ_SEED) $(GO) test -run 'TestCorpus|TestFuzzDifferentialVerdicts|TestVerdictDeterminism' -count=1 -v ./internal/verdict/

corpus-short:
	FUZZ_SEED=$(FUZZ_SEED) $(GO) test -run 'TestCorpus|TestFuzzDifferentialVerdicts' -count=1 -short ./internal/verdict/

# Daemon smoke (DESIGN.md §15): build the real shaped/shapec/shapecheck
# binaries, boot shaped over a temp store, round-trip /analyze twice
# through `shapec -remote` (the second must warm-start with the same
# result digest), run `shapecheck -remote` on a corpus task, and drain
# with SIGTERM expecting exit 0.
service-smoke:
	$(GO) test -run TestServiceSmoke -count=1 ./internal/service/
