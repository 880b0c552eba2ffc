// Package analysis implements the symbolic-execution engine of the
// paper: an iterative abstract interpretation over the statement-level
// CFG that computes, for every sentence, the RSRSG approximating all
// memory configurations after its execution (Sect. 2, Fig. 2), and the
// progressive driver that escalates through the analysis levels
// L1 -> L2 -> L3 (Sect. 5).
package analysis

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/absem"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
	"repro/internal/store"
)

// Options configures one analysis run.
type Options struct {
	// Level is the progressive analysis level (default L1).
	Level rsg.Level
	// MaxVisits bounds the total number of statement transfers before
	// the engine reports non-convergence. 0 means the default (200000).
	MaxVisits int
	// NodeBudget bounds the total number of live RSG nodes across all
	// per-statement RSRSGs; exceeding it aborts the run with
	// ErrBudgetExceeded. It models the paper's 128 MB machine on which
	// the Sparse LU analysis runs out of memory at L2/L3. 0 = unlimited.
	NodeBudget int
	// Timeout aborts the run with ErrTimeout when the fixed point takes
	// longer than this wall-clock duration. 0 = no limit.
	Timeout time.Duration
	// Workers is the number of goroutines used for the per-graph
	// abstract transfers and the per-alias-bucket RSRSG reductions.
	// 0 means GOMAXPROCS; 1 forces a fully sequential run. Any value
	// produces bit-identical per-statement digests: inputs are frozen,
	// each unit of parallel work is independent, and results are joined
	// in canonical digest order (see DESIGN.md §7).
	Workers int
	// Store, when set, backs the run with the persistent
	// content-addressed analysis store (DESIGN.md §13): per-graph
	// transfers gain a cross-process memo tier, a repeat run of the
	// same program warm-starts from its recorded snapshot, and a
	// changed program is re-analyzed edit-delta — only the changed
	// statements and their forward cone. Nil disables persistence
	// entirely.
	Store *store.Store
	// forceEditDelta makes the planner take the edit-delta path even
	// when an exact snapshot would warm-start the run — the zero-edit
	// case. Test-only (unexported): it exercises the diff/seed machinery
	// on a program with no changes, which must still be bit-identical.
	forceEditDelta bool
}

// ErrBudgetExceeded reports that the abstraction outgrew NodeBudget.
var ErrBudgetExceeded = errors.New("analysis: node budget exceeded (out of memory)")

// ErrNoConvergence reports that the fixed point was not reached within
// MaxVisits statement transfers.
var ErrNoConvergence = errors.New("analysis: fixed point not reached within the visit budget")

// ErrTimeout reports that the run exceeded Options.Timeout.
var ErrTimeout = errors.New("analysis: wall-clock timeout exceeded")

// timeoutError is ErrTimeout decorated with the run's elapsed time and
// visit count. The coordinator can observe a timeout at two points —
// the pre-visit deadline check and the cancellation surfacing through
// a transfer fan-out — and both route through wrapTimeout, which
// refuses to decorate twice, so a timeout always carries exactly one
// "after <dur> (<n> visits)" suffix no matter how many layers it
// crosses.
type timeoutError struct {
	dur    time.Duration
	visits int
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("%v after %v (%d visits)", ErrTimeout, e.dur, e.visits)
}

func (e *timeoutError) Unwrap() error { return ErrTimeout }

// wrapTimeout decorates a timeout error with elapsed time and visit
// count, idempotently: a non-timeout error and an already-decorated
// timeout pass through unchanged.
func wrapTimeout(err error, start time.Time, visits int) error {
	if !errors.Is(err, ErrTimeout) {
		return err
	}
	var te *timeoutError
	if errors.As(err, &te) {
		return err
	}
	return &timeoutError{dur: time.Since(start).Round(time.Millisecond), visits: visits}
}

// Stats aggregates engine counters for one run.
type Stats struct {
	// Visits is the number of statement transfers executed.
	Visits int
	// Requeues counts worklist pushes that re-enqueued a statement
	// after it had already been transferred at least once — the
	// scheduling waste a better iteration order drives down (pushes of
	// never-yet-visited statements are the dataflow itself, not waste).
	Requeues int
	// ComponentStabilizations counts WTO component iteration rounds:
	// each round visits the component head (if pending) and sweeps the
	// body once. 0 on loop-free programs.
	ComponentStabilizations int
	// Widenings is always 0: the engine has no widening. The field stays
	// only because the repository benchmark (perfbench) still reads it.
	Widenings int
	// VisitCounts is the per-statement transfer count, indexed by
	// statement ID (VisitHistogram renders its distribution).
	VisitCounts []int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// PeakNodes/PeakLinks/PeakGraphs track the largest total
	// abstraction size observed across all statements.
	PeakNodes  int
	PeakLinks  int
	PeakGraphs int
	// FinalNodes/FinalLinks/FinalGraphs describe the fixed point.
	FinalNodes  int
	FinalLinks  int
	FinalGraphs int
	// Workers is the resolved worker count of the run (Options.Workers
	// after defaulting 0 to GOMAXPROCS).
	Workers int
	// ParallelTransfers counts statement transfers whose per-graph
	// steps were fanned out over the worker pool; ParallelJobs counts
	// the per-graph jobs those fan-outs dispatched.
	ParallelTransfers int
	ParallelJobs      int
	// DeltaTransfers counts the visits of filtering and heap-mutating
	// statements, each served by the semi-naïve delta path (only new
	// in-graphs stepped, only dirty alias buckets re-reduced).
	// DirtyBuckets totals the alias buckets re-reduced across them.
	DeltaTransfers int
	DirtyBuckets   int
	// StoreMemoHits counts per-graph transfers served from the
	// persistent store's transfer-memo tier instead of recomputed.
	StoreMemoHits int
	// ReusedStatements counts statements whose out-states were restored
	// from a store snapshot (every visited statement on a warm start;
	// the reachable statements outside the changed cone on an edit-delta
	// run). ReseededStatements counts the statements an edit-delta run
	// seeded back onto the worklist — the changed statements plus their
	// forward cone. Both are 0 on cold runs.
	ReusedStatements   int
	ReseededStatements int
	// Cache holds the rsg digest/freeze/intern counters of this run,
	// from the run's own recorder threaded through the reduction layer,
	// so they count this run's work alone even when several Runs overlap
	// in one process (the daemon's steady state).
	Cache rsg.CacheStats
}

// CacheSummary renders the delta and cache counters in one line.
func (s *Stats) CacheSummary() string {
	return fmt.Sprintf(
		"delta(transfers=%d dirty=%d) frozen=%d digests(computed=%d cached=%d) intern(hits=%d misses=%d)",
		s.DeltaTransfers, s.DirtyBuckets,
		s.Cache.GraphsFrozen, s.Cache.DigestsComputed, s.Cache.DigestCacheHits,
		s.Cache.InternHits, s.Cache.InternMisses)
}

// SchedSummary renders the scheduling counters in one line.
func (s *Stats) SchedSummary() string {
	return fmt.Sprintf("sched(visits=%d requeues=%d comp-stabs=%d)",
		s.Visits, s.Requeues, s.ComponentStabilizations)
}

// VisitHistogram renders the visits-per-statement distribution in
// power-of-two buckets, e.g. "0:2 1:14 2:3 3-4:6 5-8:1". Statements
// piling into the high buckets are the ones the scheduler re-fires.
func (s *Stats) VisitHistogram() string {
	if len(s.VisitCounts) == 0 {
		return ""
	}
	zero := 0
	var buckets []int // buckets[b] counts v with ceil(log2(v)) == b
	for _, v := range s.VisitCounts {
		if v <= 0 {
			zero++
			continue
		}
		b := 0
		for hi := 1; hi < v; hi <<= 1 {
			b++
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	out := fmt.Sprintf("0:%d", zero)
	for b, n := range buckets {
		if n == 0 {
			continue
		}
		lo, hi := 1, 1
		if b > 0 {
			lo, hi = 1<<(b-1)+1, 1<<b
		}
		if lo == hi {
			out += fmt.Sprintf(" %d:%d", lo, n)
		} else {
			out += fmt.Sprintf(" %d-%d:%d", lo, hi, n)
		}
	}
	return out
}

// Result is the outcome of one analysis run.
type Result struct {
	Program *ir.Program
	Level   rsg.Level
	// Out maps every statement ID to the RSRSG after its execution.
	Out   map[int]*rsrsg.Set
	Stats Stats
}

// ExitSet returns the RSRSG at the function exit.
func (r *Result) ExitSet() *rsrsg.Set { return r.Out[r.Program.Exit] }

// Run executes the symbolic analysis to its fixed point. It does not
// modify prog: the program's induction sets and store digests are
// computed once per program behind sync.Once guards, so one compiled
// program can serve any number of concurrent runs.
func Run(prog *ir.Program, opts Options) (*Result, error) {
	if opts.Level == 0 {
		opts.Level = rsg.L1
	}
	if opts.MaxVisits == 0 {
		opts.MaxVisits = 200000
	}
	prog.AnnotateInduction()

	res := &Result{
		Program: prog,
		Level:   opts.Level,
		Out:     make(map[int]*rsrsg.Set, len(prog.Stmts)),
	}
	start := time.Now()
	eng := newEngineRun(opts, start)
	defer eng.cancel(nil)
	defer func() {
		res.Stats.Duration = time.Since(start)
		res.Stats.Cache = eng.rec.Snapshot()
		res.Stats.Workers = eng.workers
		res.Stats.ParallelTransfers = int(eng.parallelTransfers.Load())
		res.Stats.ParallelJobs = int(eng.parallelJobs.Load())
		res.Stats.DeltaTransfers = eng.deltaTransfers
		res.Stats.DirtyBuckets = eng.dirtyBuckets
		res.Stats.StoreMemoHits = int(eng.storeMemoHits.Load())
	}()

	reduceOpts := eng.reduceOpts

	// Entry state: one empty RSG (all pvars NULL, empty heap).
	entrySet := rsrsg.New()
	entrySet.AddStats(rsg.NewGraph(), eng.rec)
	res.Out[prog.Entry] = entrySet
	// Running abstraction-size totals, updated whenever an out-state is
	// replaced, so the per-visit peak/budget accounting is O(1) instead
	// of rescanning every out-set.
	curNodes, curLinks, curGraphs := entrySet.NumNodes(), entrySet.NumLinks(), entrySet.Len()

	// Persistence planning (DESIGN.md §13): probe the store for a warm
	// snapshot of this exact program or a converged snapshot of a
	// previous version to edit-delta against. applyRestore folds
	// restored out-states into the result with the running size totals
	// kept consistent (the entry's restored set replaces the seeded one;
	// they are identical by construction).
	plan := eng.planPersist(prog, opts)
	applyRestore := func(m map[int]*rsrsg.Set) {
		for id, set := range m {
			if old := res.Out[id]; old != nil {
				curNodes -= old.NumNodes()
				curLinks -= old.NumLinks()
				curGraphs -= old.Len()
			}
			res.Out[id] = set
			curNodes += set.NumNodes()
			curLinks += set.NumLinks()
			curGraphs += set.Len()
		}
	}
	switch plan.mode {
	case persistWarm:
		// Wholesale restore: zero transfers, zero visits; the recorded
		// outcome (converged, or the bounded prefix's ErrNoConvergence)
		// is replayed as-is.
		applyRestore(plan.restore)
		res.Stats.ReusedStatements = len(plan.restore)
		if err := res.observeSize(opts, curNodes, curLinks, curGraphs); err != nil {
			return res, err
		}
		res.finalSize(curNodes, curLinks, curGraphs)
		return res, plan.outcome
	case persistEdit:
		applyRestore(plan.restore)
		res.Stats.ReusedStatements = len(plan.restore)
		res.Stats.ReseededStatements = len(plan.seed)
	}

	// Scheduling (DESIGN.md §14): the WTO recursive strategy stabilizes
	// each loop component before the order advances past it, so changes
	// ripple forward through the CFG before loops re-fire.
	sched := newWTOSched(prog)
	visits := make([]int, len(prog.Stmts))
	inState := make(map[int]*rsrsg.Set, len(prog.Stmts))
	push := func(id int) {
		if sched.push(id) && visits[id] > 0 {
			res.Stats.Requeues++
		}
	}
	pushSuccs := func(id int) {
		for _, s := range prog.Stmts[id].Succs {
			push(s)
		}
	}
	if plan.mode == persistEdit {
		// Edit-delta seeding: only the changed statements and their
		// forward cone re-enter the worklist. Their non-cone
		// predecessors' out-states were restored above, so the first
		// visit of each seeded statement admits the converged in-flow
		// directly via MergeDeltaBatch instead of recomputing it.
		for _, id := range plan.seed {
			push(id)
		}
	} else {
		pushSuccs(prog.Entry)
	}

	var contribs []*rsrsg.Set
	visit := func(id int) error {
		if res.Stats.Visits >= opts.MaxVisits {
			return ErrNoConvergence
		}
		if opts.Timeout > 0 && time.Since(start) > opts.Timeout {
			return wrapTimeout(ErrTimeout, start, res.Stats.Visits)
		}
		res.Stats.Visits++

		stmt := prog.Stmt(id)
		ctx := &absem.Context{
			Level:     opts.Level,
			Opts:      reduceOpts,
			InLoop:    prog.InLoop(id),
			Induction: rsg.NewPvarSet(),
		}
		if opts.Level.UseTouch() {
			for p := range prog.InductionFor(id) {
				ctx.Induction.Add(p)
			}
		}

		// in-states accumulate monotonically: every predecessor's current
		// out-state is folded in incrementally (only genuinely new
		// graphs are processed), with TOUCH erasure applied on
		// loop-exit edges. All contributions of the visit are admitted
		// in one batched merge — one alias-bucket reduction round and
		// one delta instead of a round per predecessor — so the
		// per-round fixed costs (bucket snapshots, task dispatch)
		// amortize across a statement's whole pending delta. The
		// accumulation makes the dataflow monotone regardless of
		// transfer non-monotonicities: after its first visit a
		// statement transfers only when its in-state absorbs a digest
		// it has never absorbed, and MaxVisits ends any run that
		// outlasts that (DESIGN.md §14). The membership delta across
		// all predecessor merges feeds the semi-naïve transfer below.
		in := inState[id]
		if in == nil {
			in = rsrsg.New()
			inState[id] = in
		}
		contribs = contribs[:0]
		for _, pred := range stmt.Preds {
			po := res.Out[pred]
			if po == nil {
				continue
			}
			contribution := po
			if opts.Level.UseTouch() {
				if erase := exitedInduction(prog, pred, id); !erase.Empty() {
					// TOUCH erasure rewrites the predecessor's contribution
					// before it is merged, so the in-state delta below sees
					// erased graphs like any others (DESIGN.md §8). The erase
					// is memoized per edge: its ipvar set is static, so the
					// result is a pure function of the input set.
					contribution = eng.eraseMemo.Apply(ctx, eraseEdgeKey(pred, id), po, erase)
				}
			}
			contribs = append(contribs, contribution)
		}
		delta := in.MergeDeltaBatch(opts.Level, contribs, reduceOpts)
		if delta.Empty() && res.Out[id] != nil {
			return nil
		}

		// Standard dataflow: out = F(in), computed semi-naïvely from the
		// in-state delta.
		visits[id]++
		out, err := eng.transferDelta(ctx, stmt, in, delta)
		if err != nil {
			return wrapTimeout(err, start, res.Stats.Visits)
		}
		if old := res.Out[id]; old == nil || !out.Equal(old) {
			if old != nil {
				curNodes -= old.NumNodes()
				curLinks -= old.NumLinks()
				curGraphs -= old.Len()
			}
			curNodes += out.NumNodes()
			curLinks += out.NumLinks()
			curGraphs += out.Len()
			res.Out[id] = out
			pushSuccs(id)
		}

		return res.observeSize(opts, curNodes, curLinks, curGraphs)
	}

	err := sched.run(visit)
	res.Stats.VisitCounts = visits
	res.Stats.ComponentStabilizations = sched.stabs
	if err != nil {
		if errors.Is(err, ErrNoConvergence) {
			return res, eng.persistFinish(plan, prog, res, ErrNoConvergence)
		}
		return res, err
	}
	res.finalSize(curNodes, curLinks, curGraphs)
	return res, eng.persistFinish(plan, prog, res, nil)
}

// eraseEdgeKey packs a CFG edge into the EraseMemo key space.
func eraseEdgeKey(pred, id int) uint64 {
	return uint64(uint32(pred))<<32 | uint64(uint32(id))
}

// exitedInduction returns the induction pvars of the loops left by the
// edge pred -> id.
func exitedInduction(prog *ir.Program, pred, id int) rsg.PvarSet {
	out := rsg.NewPvarSet()
	for _, l := range prog.LoopsExited(pred, id) {
		for p := range l.Induction {
			out.Add(p)
		}
	}
	return out
}

// stepGraph dispatches one graph through a statement's per-graph
// abstract semantics.
func stepGraph(ctx *absem.Context, s *ir.Stmt, g *rsg.Graph) []*rsg.Graph {
	switch s.Op {
	case ir.OpNil:
		return absem.StepNilSym(ctx, g, s.XSym)
	case ir.OpMalloc:
		return absem.StepMallocSym(ctx, g, s.XSym, s.TypeSym)
	case ir.OpCopy:
		return absem.StepCopySym(ctx, g, s.XSym, s.YSym)
	case ir.OpSelNil:
		return absem.StepSelNilSym(ctx, g, s.XSym, s.SelSym)
	case ir.OpSelCopy:
		return absem.StepSelCopySym(ctx, g, s.XSym, s.SelSym, s.YSym)
	case ir.OpLoad:
		return absem.StepLoadSym(ctx, g, s.XSym, s.YSym, s.SelSym)
	case ir.OpFree:
		return absem.StepFreeSym(ctx, g, s.XSym, s.SelSyms)
	}
	return []*rsg.Graph{g}
}

// observeSize folds the engine's running abstraction-size totals into
// the peak statistics and enforces the node budget. The totals are
// maintained incrementally by the worklist loop, so this is O(1) per
// visit.
func (r *Result) observeSize(opts Options, nodes, links, graphs int) error {
	if nodes > r.Stats.PeakNodes {
		r.Stats.PeakNodes = nodes
	}
	if links > r.Stats.PeakLinks {
		r.Stats.PeakLinks = links
	}
	if graphs > r.Stats.PeakGraphs {
		r.Stats.PeakGraphs = graphs
	}
	if opts.NodeBudget > 0 && nodes > opts.NodeBudget {
		return fmt.Errorf("%w: %d nodes > budget %d", ErrBudgetExceeded, nodes, opts.NodeBudget)
	}
	return nil
}

func (r *Result) finalSize(nodes, links, graphs int) {
	r.Stats.FinalNodes = nodes
	r.Stats.FinalLinks = links
	r.Stats.FinalGraphs = graphs
}
