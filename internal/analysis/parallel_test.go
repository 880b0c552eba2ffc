package analysis_test

// Tests for the parallel fixpoint engine (DESIGN.md §7): the
// determinism property (any worker count produces bit-identical
// per-statement digests), prompt cancellation of in-flight workers on
// Timeout/NodeBudget, goroutine hygiene, per-run cache counts under
// overlapping runs, and a process-global intern table that a finished
// run leaves as it found it.

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/store"
)

// fig1PipelineSource is the Fig. 1(a) working example: build a doubly
// linked list, then traverse it with a second pointer.
const fig1PipelineSource = `
struct elem { int val; struct elem *nxt; struct elem *prv; };
void main(void) {
    struct elem *list;
    struct elem *p;
    struct elem *e;
    list = malloc(sizeof(struct elem));
    list->nxt = NULL;
    list->prv = NULL;
    p = list;
    while (more) {
        e = malloc(sizeof(struct elem));
        e->nxt = NULL;
        e->prv = p;
        p->nxt = e;
        p = e;
    }
    p = list;
    while (go) {
        p = p->nxt;
    }
}
`

// popFreeSource builds a list and deallocates it by popping the head —
// the free-heavy counterpart of fig1 for the determinism matrix.
const popFreeSource = `
struct node { struct node *nxt; };
void main(void) {
    struct node *p;
    struct node *q;
    p = NULL;
    while (cond) {
        q = malloc(sizeof(struct node));
        q->nxt = p;
        p = q;
    }
    q = NULL;
    while (p != NULL) {
        q = p->nxt;
        free(p);
        p = q;
    }
}
`

// fingerprint renders the per-statement RSRSG membership as sorted
// canonical digests — the object the determinism property quantifies
// over. Digests are sorted so the fingerprint is independent of the
// sets' internal entry order.
func fingerprint(res *analysis.Result) string {
	ids := make([]int, 0, len(res.Out))
	for id := range res.Out {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		var digs []string
		res.Out[id].ForEachEntry(func(g *rsg.Graph, dig rsg.Digest) {
			digs = append(digs, fmt.Sprintf("%x", dig))
		})
		sort.Strings(digs)
		fmt.Fprintf(&b, "%d: %s\n", id, strings.Join(digs, " "))
	}
	return b.String()
}

// TestParallelDeterminism runs the determinism property over the
// fixture programs x levels L1-L3 x Workers in {1,2,4,8} ({1,4} under
// -short): every configuration must produce identical per-statement
// digest sets, and a repeated run of the last configuration must agree
// with the first (no hidden dependence on goroutine interleaving). The
// heavy kernels run under a visit bound — partial fixed points
// exercise the same code paths and must be just as deterministic.
func TestParallelDeterminism(t *testing.T) {
	fixtures := []struct {
		name      string
		prog      func(t *testing.T) *ir.Program
		maxVisits int
	}{
		{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, 0},
		{"barneshut", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "barneshut"); return p }, 300},
		{"lu", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "lu"); return p }, 300},
		// popFreeSource exercises the OpFree transfer (and its delta
		// path) in the matrix: deallocation must be just as
		// deterministic as the constructive sentences.
		{"popfree", func(t *testing.T) *ir.Program { return compileSrc(t, popFreeSource) }, 0},
	}
	workers := []int{1, 2, 4, 8}
	if testing.Short() {
		workers = []int{1, 4}
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			prog := fx.prog(t)
			for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
				run := func(w int) string {
					res, err := analysis.Run(prog, analysis.Options{
						Level: lvl, MaxVisits: fx.maxVisits, Workers: w,
					})
					if err != nil && !(fx.maxVisits > 0 && errors.Is(err, analysis.ErrNoConvergence)) {
						t.Fatalf("%s %v workers=%d: %v", fx.name, lvl, w, err)
					}
					return fingerprint(res)
				}
				want := run(workers[0])
				for _, w := range workers[1:] {
					if got := run(w); got != want {
						t.Fatalf("%s %v: workers=%d diverged from workers=%d:\n--- want\n%s\n--- got\n%s",
							fx.name, lvl, w, workers[0], want, got)
					}
				}
				// A second run of the last configuration must reproduce
				// the first bit for bit.
				if got := run(workers[len(workers)-1]); got != want {
					t.Fatalf("%s %v: repeated workers=%d run disagrees with itself",
						fx.name, lvl, workers[len(workers)-1])
				}
			}
		})
	}
}

// TestRunSharesProgram runs eight goroutines on one freshly compiled
// program at once, so the program's memoized induction pass and store
// digests are first computed under contention. Run must not write to
// its program (-race), and every run must reproduce a sequential run's
// per-statement digests. L3 reads the induction sets for TOUCH; the
// store-backed runs also read the program digests, and the later ones
// may warm-start from an earlier one's snapshot.
func TestRunSharesProgram(t *testing.T) {
	const goroutines = 8
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L3} {
		opts := analysis.Options{Level: lvl, MaxVisits: 300, Workers: 1}
		ref, _ := compileKernel(t, "barneshut")
		res, err := analysis.Run(ref, opts)
		if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
			t.Fatalf("%v sequential run: %v", lvl, err)
		}
		want := fingerprint(res)
		for _, withStore := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/store=%v", lvl, withStore), func(t *testing.T) {
				opts := opts
				if withStore {
					st, err := store.Open(filepath.Join(t.TempDir(), "cache.rsgstore"))
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					opts.Store = st
				}
				prog, _ := compileKernel(t, "barneshut")
				start := make(chan struct{})
				errc := make(chan error, goroutines)
				var wg sync.WaitGroup
				for i := 0; i < goroutines; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-start
						res, err := analysis.Run(prog, opts)
						if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
							errc <- fmt.Errorf("run %d: %v", i, err)
							return
						}
						if got := fingerprint(res); got != want {
							errc <- fmt.Errorf("run %d (reused %d statements) diverged from the sequential run",
								i, res.Stats.ReusedStatements)
						}
					}(i)
				}
				close(start)
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Error(err)
				}
			})
		}
	}
}

// TestParallelFanoutHappens guards the harness against vacuity: the
// bounded Barnes-Hut run must actually dispatch parallel transfer jobs
// (otherwise the determinism test would only ever compare sequential
// runs with themselves).
func TestParallelFanoutHappens(t *testing.T) {
	prog, _ := compileKernel(t, "barneshut")
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1, MaxVisits: 1500, Workers: 4})
	if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatal(err)
	}
	if res.Stats.Workers != 4 {
		t.Fatalf("resolved workers = %d, want 4", res.Stats.Workers)
	}
	if res.Stats.ParallelTransfers == 0 || res.Stats.ParallelJobs == 0 {
		t.Fatalf("no parallel fan-out happened (transfers=%d jobs=%d); determinism tests would be vacuous",
			res.Stats.ParallelTransfers, res.Stats.ParallelJobs)
	}
}

// deepLoopSrc emits a depth-deep nest of list-building loops — the
// visit count explodes with depth, making the program a reliable way
// to keep the engine busy long enough for cancellation to land
// mid-run.
func deepLoopSrc(depth int) string {
	var b strings.Builder
	b.WriteString("struct elem { int v; struct elem *nxt; struct elem *prv; };\n")
	b.WriteString("void main(void) {\n    struct elem *l;\n    struct elem *t;\n    l = NULL;\n")
	for i := 0; i < depth; i++ {
		b.WriteString(strings.Repeat("    ", i+1) + "while (c) {\n")
	}
	pad := strings.Repeat("    ", depth+1)
	b.WriteString(pad + "t = malloc(sizeof(struct elem));\n")
	b.WriteString(pad + "t->nxt = l;\n")
	b.WriteString(pad + "l = t;\n")
	for i := depth - 1; i >= 0; i-- {
		b.WriteString(strings.Repeat("    ", i+1) + "}\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// expectNoGoroutineLeak fails the test if the goroutine count does not
// return to its pre-run baseline shortly after the engine returns (the
// worker pool is per-call, so any survivor is a leak).
func expectNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before run, %d two seconds after", base, runtime.NumGoroutine())
}

// TestTimeoutCancelsWorkersPromptly runs the Barnes-Hut kernel with a
// ~1ms budget: the run must fail with ErrTimeout well before the
// program converges, and every worker goroutine must be gone right
// after the return. (The deep loop nest used to serve this purpose,
// but the flat graph representation converges it in under a
// millisecond; the kernel stays orders of magnitude above the budget.)
func TestTimeoutCancelsWorkersPromptly(t *testing.T) {
	prog, _ := compileKernel(t, "barneshut")
	base := runtime.NumGoroutine()
	begin := time.Now()
	_, err := analysis.Run(prog, analysis.Options{
		Level: rsg.L3, Timeout: time.Millisecond, Workers: 4,
	})
	elapsed := time.Since(begin)
	if !errors.Is(err, analysis.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// The surfaced error carries exactly one elapsed/visits suffix no
	// matter which coordinator path observed the deadline.
	if n := strings.Count(err.Error(), "after"); n != 1 {
		t.Fatalf("timeout error carries %d 'after' suffixes, want 1: %q", n, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("1ms timeout honoured only after %v", elapsed)
	}
	expectNoGoroutineLeak(t, base)
}

// TestNodeBudgetCancelsWorkers aborts the same nest on a tiny node
// budget: ErrBudgetExceeded, promptly, and no goroutines left behind.
func TestNodeBudgetCancelsWorkers(t *testing.T) {
	prog := compileSrc(t, deepLoopSrc(6))
	base := runtime.NumGoroutine()
	begin := time.Now()
	_, err := analysis.Run(prog, analysis.Options{
		Level: rsg.L3, NodeBudget: 4, Workers: 4,
	})
	elapsed := time.Since(begin)
	if !errors.Is(err, analysis.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("budget of 4 nodes honoured only after %v", elapsed)
	}
	expectNoGoroutineLeak(t, base)
}

// TestVisitBudgetWithWorkers checks the third cancellation source
// under a parallel run: MaxVisits still yields ErrNoConvergence and a
// clean pool.
func TestVisitBudgetWithWorkers(t *testing.T) {
	prog := compileSrc(t, deepLoopSrc(6))
	base := runtime.NumGoroutine()
	_, err := analysis.Run(prog, analysis.Options{
		Level: rsg.L3, MaxVisits: 25, Workers: 4,
	})
	if !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	expectNoGoroutineLeak(t, base)
}

// TestPerRunCacheStats checks that Stats.Cache counts one run's work
// alone. A run makes the same intern and digest calls whatever else the
// process does; only the hit/miss split depends on what is already
// interned. So each of two concurrent runs must count exactly as many
// interns (hits + misses) and digests (computed + cached) as the same
// run alone, where attributing process-wide activity to a run would
// count both runs' calls. A collection can clear a weakly held join
// result, whose recompute interns once more, so collection is off for
// the test; 300 visits keep the run's join cache below its reset.
func TestPerRunCacheStats(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := analysis.Options{Level: rsg.L1, MaxVisits: 300, Workers: 2}
	run := func(name string) *analysis.Result {
		prog, _ := compileKernel(t, "barneshut")
		res, err := analysis.Run(prog, opts)
		if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
			t.Errorf("%s: %v", name, err)
		}
		return res
	}
	interns := func(c rsg.CacheStats) uint64 { return c.InternHits + c.InternMisses }
	digests := func(c rsg.CacheStats) uint64 { return c.DigestsComputed + c.DigestCacheHits }

	solo := run("solo run").Stats.Cache
	if interns(solo) == 0 || digests(solo) == 0 {
		t.Fatalf("solo recorder saw no work: %+v", solo)
	}
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	results := make([]*analysis.Result, 2)
	for i := range results {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			<-start
			results[i] = run(fmt.Sprintf("concurrent run %d", i))
		}(i)
	}
	ready.Wait()
	close(start)
	done.Wait()
	if t.Failed() {
		return
	}
	for i, res := range results {
		c := res.Stats.Cache
		if interns(c) != interns(solo) {
			t.Errorf("run %d: %d interns, %d alone", i, interns(c), interns(solo))
		}
		if digests(c) != digests(solo) {
			t.Errorf("run %d: %d digests, %d alone", i, digests(c), digests(solo))
		}
	}
}

// internMissesOfRun runs barneshut L1 and returns only its intern miss
// count, so the caller holds nothing of the result.
func internMissesOfRun(t *testing.T) uint64 {
	prog, _ := compileKernel(t, "barneshut")
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Cache.InternMisses
}

// TestRunReleasesInternTable checks that a finished run leaves no
// graphs behind in the process-global intern table: the table holds
// its entries weakly, so once the result is dropped, collections return
// it to its size before the run.
func TestRunReleasesInternTable(t *testing.T) {
	const slack = 16
	base := rsg.InternedGraphs()
	misses := internMissesOfRun(t)
	if misses < 1000 {
		t.Fatalf("the run interned only %d graphs", misses)
	}
	// Cleanups run asynchronously after the collection that frees their
	// graphs, so poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := rsg.InternedGraphs()
		if n <= base+slack {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intern table holds %d entries after the run, %d before it (%d misses)", n, base, misses)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
