// Benchmark harness reproducing the paper's evaluation artifacts.
//
// One benchmark exists per Table 1 cell (code x level) and per figure:
//
//   - BenchmarkTable1_* measure the full analysis of each benchmark
//     kernel at each progressive level. By default each cell runs a
//     bounded number of engine visits per iteration (benchVisits) so
//     that `go test -bench=.` terminates in minutes; set
//     REPRO_FULL_BENCH=1 to run every cell to its true fixed point —
//     the canonical full-table generator is `go run ./cmd/benchtab`.
//   - BenchmarkFigure1_* measure the Fig. 1 micro-pipeline (DIVIDE,
//     PRUNE, materialization) on the doubly-linked-list RSG.
//   - BenchmarkFigure2Pipeline measures one full symbolic-execution
//     pipeline step (divide -> prune -> interpret -> compress -> union).
//   - BenchmarkFigure3BarnesHut measures the Sect. 5.1 progressive
//     analysis of the Barnes-Hut kernel.
//
// Measured values for the full runs are recorded in EXPERIMENTS.md.
package repro_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/rsg"
	"repro/internal/store"
)

// benchVisits bounds the engine work per bench iteration in the default
// (bounded) mode: enough to push every kernel deep into its loop nest
// while keeping `go test -bench=.` practical.
const benchVisits = 1500

func fullBench() bool { return os.Getenv("REPRO_FULL_BENCH") != "" }

// benchKernel runs one Table 1 cell.
func benchKernel(b *testing.B, name string, lvl rsg.Level, opts analysis.Options) {
	k := benchprog.ByName(name)
	if k == nil {
		b.Fatalf("unknown kernel %s", name)
	}
	prog, err := k.Compile()
	if err != nil {
		b.Fatal(err)
	}
	opts.Level = lvl
	if !fullBench() && opts.MaxVisits == 0 {
		opts.MaxVisits = benchVisits
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := analysis.Run(prog, opts)
		if err != nil && !errors.Is(err, analysis.ErrNoConvergence) &&
			!errors.Is(err, analysis.ErrBudgetExceeded) {
			b.Fatal(err)
		}
		if res != nil {
			b.ReportMetric(float64(res.Stats.Visits), "visits")
			b.ReportMetric(float64(res.Stats.PeakNodes), "peak-nodes")
			b.ReportMetric(float64(res.Stats.PeakGraphs), "peak-graphs")
		}
	}
}

// ---- Table 1: time and space per code per level -----------------------

func BenchmarkTable1_MatVec_L1(b *testing.B) { benchKernel(b, "matvec", rsg.L1, analysis.Options{}) }
func BenchmarkTable1_MatVec_L2(b *testing.B) { benchKernel(b, "matvec", rsg.L2, analysis.Options{}) }
func BenchmarkTable1_MatVec_L3(b *testing.B) { benchKernel(b, "matvec", rsg.L3, analysis.Options{}) }

func BenchmarkTable1_MatMat_L1(b *testing.B) { benchKernel(b, "matmat", rsg.L1, analysis.Options{}) }
func BenchmarkTable1_MatMat_L2(b *testing.B) { benchKernel(b, "matmat", rsg.L2, analysis.Options{}) }
func BenchmarkTable1_MatMat_L3(b *testing.B) { benchKernel(b, "matmat", rsg.L3, analysis.Options{}) }

// The LU factorization is the paper's heaviest row: 12'15" at L1 and an
// out-of-memory abort at L2/L3 on the 128 MB machine. The L2/L3 cells
// reproduce the abort through the node budget.
func BenchmarkTable1_LU_L1(b *testing.B) { benchKernel(b, "lu", rsg.L1, analysis.Options{}) }
func BenchmarkTable1_LU_L2(b *testing.B) {
	benchKernel(b, "lu", rsg.L2, analysis.Options{NodeBudget: 60000})
}
func BenchmarkTable1_LU_L3(b *testing.B) {
	benchKernel(b, "lu", rsg.L3, analysis.Options{NodeBudget: 60000})
}

func BenchmarkTable1_BarnesHut_L1(b *testing.B) {
	benchKernel(b, "barneshut", rsg.L1, analysis.Options{})
}
func BenchmarkTable1_BarnesHut_L2(b *testing.B) {
	benchKernel(b, "barneshut", rsg.L2, analysis.Options{})
}
func BenchmarkTable1_BarnesHut_L3(b *testing.B) {
	benchKernel(b, "barneshut", rsg.L3, analysis.Options{})
}

// ---- Compile and warm start: the service's per-request costs -----------

// BenchmarkCompileKernels compiles the four Table 1 kernels exactly as
// the perfbench table1 workload's set-up does. Its allocs/op guards the
// cost of lowering, which the engine's memoized passes stay out of.
func BenchmarkCompileKernels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range benchprog.Kernels() {
			if _, err := k.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmRun measures a warm-started Run: matmat at L1 against a
// store holding its snapshot, on one compiled program, the way shaped
// serves a repeated request. Every statement is restored from the
// store and none is transferred.
func BenchmarkWarmRun(b *testing.B) {
	st, err := store.Open(filepath.Join(b.TempDir(), "warm.rsgstore"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	prog, err := benchprog.ByName("matmat").Compile()
	if err != nil {
		b.Fatal(err)
	}
	opts := analysis.Options{Level: rsg.L1, Workers: 1, Store: st}
	if _, err := analysis.Run(prog, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := analysis.Run(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Visits != 0 || res.Stats.ReusedStatements == 0 {
			b.Fatalf("run was not warm: %d visits, %d statements reused",
				res.Stats.Visits, res.Stats.ReusedStatements)
		}
	}
}

// ---- Figure 1: the x->nxt = NULL micro-pipeline ------------------------

// fig1Source builds the Fig. 1(a) doubly-linked list and executes the
// statement the figure walks through.
const fig1Source = `
struct elem { int val; struct elem *nxt; struct elem *prv; };
void main(void) {
    struct elem *first;
    struct elem *last;
    struct elem *e;
    struct elem *x;
    first = malloc(sizeof(struct elem));
    first->nxt = NULL;
    first->prv = NULL;
    last = first;
    while (more) {
        e = malloc(sizeof(struct elem));
        e->nxt = NULL;
        e->prv = last;
        last->nxt = e;
        last = e;
    }
    e = NULL;
    x = first;
    x->nxt = NULL;
}
`

func BenchmarkFigure1Pipeline(b *testing.B) {
	prog, err := repro.Compile(fig1Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Run(prog, analysis.Options{Level: rsg.L1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2: one symbolic-execution pipeline step --------------------

func BenchmarkFigure2Pipeline(b *testing.B) {
	// Fix point of the list builder, then repeatedly push its exit
	// RSRSG through one destructive statement: the per-sentence
	// divide/prune/interpret/compress/union pipeline of Fig. 2.
	prog, err := repro.Compile(fig1Source)
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
	if err != nil {
		b.Fatal(err)
	}
	in := res.ExitSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := analysis.PipelineStep(rsg.L1, in, "first", "nxt")
		if out.Len() == 0 {
			b.Fatal("pipeline produced no graphs")
		}
	}
}

// ---- Figure 3: the Barnes-Hut progressive case study -------------------

func BenchmarkFigure3BarnesHut(b *testing.B) {
	prog, k := repro.MustKernel("barneshut")
	opts := analysis.Options{}
	if !fullBench() {
		opts.MaxVisits = benchVisits
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pres := analysis.Progressive(prog, k.Goals, opts)
		if pres.Final == nil {
			b.Fatal("no final level")
		}
	}
}

// ---- Parallel engine scaling -------------------------------------------

// The parallel engine fans per-graph transfers and per-alias-bucket
// reductions over Options.Workers goroutines; output digests are
// bit-identical at every worker count (see internal/analysis
// TestParallelDeterminism), so these benchmarks measure pure speedup.
// Measured numbers are recorded in CHANGES.md.

func benchParallelBarnesHut(b *testing.B, workers int) {
	benchKernel(b, "barneshut", rsg.L1, analysis.Options{Workers: workers, MaxVisits: benchVisits})
}

func BenchmarkParallelBarnesHutL1_Workers1(b *testing.B) { benchParallelBarnesHut(b, 1) }
func BenchmarkParallelBarnesHutL1_Workers2(b *testing.B) { benchParallelBarnesHut(b, 2) }
func BenchmarkParallelBarnesHutL1_Workers4(b *testing.B) { benchParallelBarnesHut(b, 4) }
func BenchmarkParallelBarnesHutL1_Workers8(b *testing.B) { benchParallelBarnesHut(b, 8) }

// ---- Digest-core regression checks -------------------------------------

// TestFigurePipelinesUnderFreezeGuard runs the figure workloads with
// the freeze guard armed (every graph entering an RSRSG is frozen, so
// any transfer that mutated its input in place would panic).
func TestFigurePipelinesUnderFreezeGuard(t *testing.T) {
	prog, err := repro.Compile(fig1Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		res, err := analysis.Run(prog, analysis.Options{Level: lvl})
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		in := res.ExitSet()
		before := in.Digest()
		if out := analysis.PipelineStep(lvl, in, "first", "nxt"); out.Len() == 0 {
			t.Fatalf("%v: pipeline produced no graphs", lvl)
		}
		if in.Digest() != before {
			t.Fatalf("%v: pipeline step mutated its input set", lvl)
		}
	}
}

// ---- Worklist micro-benchmark ------------------------------------------

// deepLoopSource builds a mini-C program with a deep while-nest: the
// worst case for the former O(S) worklist pop, which re-scanned the RPO
// slice from the top on every iteration of every loop level.
func deepLoopSource(depth int) string {
	var b strings.Builder
	b.WriteString("struct node { int v; struct node *nxt; };\n")
	b.WriteString("void main(void) {\n")
	b.WriteString("    struct node *h;\n    struct node *p;\n")
	b.WriteString("    h = malloc(sizeof(struct node));\n")
	b.WriteString("    h->nxt = NULL;\n")
	for i := 0; i < depth; i++ {
		b.WriteString("    while (more) {\n")
		b.WriteString("        p = h;\n")
		b.WriteString("        p->nxt = NULL;\n")
	}
	b.WriteString("        p = h;\n")
	for i := 0; i < depth; i++ {
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// BenchmarkDeepLoopNestWorklist measures fixed-point scheduling cost on
// a 24-deep loop nest; transfer work is trivial (after round one the
// body statements' in-states admit nothing new), so worklist overhead
// dominates.
func BenchmarkDeepLoopNestWorklist(b *testing.B) {
	prog, err := repro.Compile(deepLoopSource(24))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Visits), "visits")
	}
}
