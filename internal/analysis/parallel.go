package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/absem"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
	"repro/internal/store"
)

// This file implements the parallel evaluation layer of the engine
// (DESIGN.md §7). The fixed-point loop itself stays sequential — the
// per-statement worklist order is load-bearing for convergence speed —
// but the two hot inner loops fan out over a worker pool:
//
//   1. per-graph abstract transfers: the new graphs of a statement's
//      in-state delta are independent frozen inputs, so their steps
//      are dispatched as parallel jobs;
//   2. per-alias-bucket reductions inside rsrsg (Reduce/MergeDeltaBatch/
//      Accum), reached through the rsrsg.Options.Exec hook.
//
// Determinism is by construction, not by luck: every parallel unit
// writes to a pre-assigned slot, and results are joined in the same
// canonical order the sequential engine uses (input-entry order for
// transfers, sorted alias-key order for buckets). Workers=1 and
// Workers=N therefore produce bit-identical per-statement digests.

// parallelFanoutMin is the minimum number of graphs to step at one
// statement before the engine pays the goroutine fan-out cost; below
// it the steps run inline on the coordinator.
const parallelFanoutMin = 2

// engineRun is the per-Run mutable state shared between the worklist
// coordinator and the transfer workers. The delta caches and the store
// probes are only touched by the coordinator; the counters are atomics
// because rsrsg bucket tasks also run on workers.
type engineRun struct {
	opts       Options
	reduceOpts rsrsg.Options
	workers    int
	ctx        context.Context
	cancel     context.CancelCauseFunc
	// rec is the run's private digest/freeze/intern recorder, threaded
	// through reduceOpts.Stats into every reduction and restore of this
	// run; Run snapshots it into Stats.Cache, which is what keeps cache
	// stats exact when several Runs overlap in one process.
	rec *rsg.RunStats

	parallelTransfers atomic.Int64
	parallelJobs      atomic.Int64
	storeMemoHits     atomic.Int64

	// Persistent memo tier (persist.go), armed by planPersist when
	// Options.Store is set: stmtKeys holds each statement's transfer key
	// (options fingerprint + context-free transfer digest). Probes and
	// write-throughs run on the coordinator only.
	store    *store.Store
	stmtKeys []store.Key

	// Semi-naïve transfer state (DESIGN.md §8), coordinator-only: the
	// worklist loop is sequential, so plain fields suffice. delta holds
	// each statement's cached transfer state.
	delta     map[int]*stmtDelta
	eraseMemo absem.EraseMemo

	deltaTransfers int
	dirtyBuckets   int
}

// stmtDelta is one statement's cached semi-naïve transfer state.
type stmtDelta struct {
	// acc accumulates a heap-mutating op's out-state incrementally; parts
	// maps each live in-graph digest to its transfer part so members
	// joined away by the in-state reduction can be retracted from the
	// accumulator by refcount.
	acc   *rsrsg.Accum
	parts map[rsg.Digest]*rsrsg.Set
	// filtered is an Assume op's cached filter result, updated in place
	// from the in-state membership delta.
	filtered *rsrsg.Set
}

func (e *engineRun) deltaState(id int) *stmtDelta {
	ds := e.delta[id]
	if ds == nil {
		ds = &stmtDelta{}
		e.delta[id] = ds
	}
	return ds
}

// newEngineRun resolves the worker count, arms the cancellation
// context (deadline when Options.Timeout is set) and builds the
// reduction options, wiring the executor hook in when parallel.
func newEngineRun(opts Options, start time.Time) *engineRun {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &engineRun{
		opts:    opts,
		workers: workers,
		rec:     &rsg.RunStats{},
		delta:   make(map[int]*stmtDelta),
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	e.ctx, e.cancel = ctx, cancel
	if opts.Timeout > 0 {
		// The deadline reaches into in-flight workers: a long transfer
		// fan-out stops at the next job boundary instead of running to
		// completion after the budget is gone. Run cancels the cause-
		// carrying parent on every return, so workers never outlive it.
		dctx, dcancel := context.WithDeadlineCause(ctx, start.Add(opts.Timeout), ErrTimeout)
		e.ctx = dctx
		parent := cancel
		e.cancel = func(cause error) {
			dcancel()
			parent(cause)
		}
	}
	e.reduceOpts = rsrsg.Options{Stats: e.rec}
	if workers > 1 {
		e.reduceOpts.Exec = e.exec
	}
	return e
}

// cancelErr maps the context's cancellation cause onto the engine's
// sentinel errors (the deadline carries ErrTimeout as its cause).
func (e *engineRun) cancelErr() error {
	if cause := context.Cause(e.ctx); cause != nil {
		return cause
	}
	return e.ctx.Err()
}

// exec is the rsrsg.Options.Exec hook: it runs the bucket tasks of one
// reduction over the worker pool. Tasks always run to completion —
// a reduction must not observe partially-written buckets — so
// cancellation is handled at the coordinator's granularity, not here.
func (e *engineRun) exec(tasks []func()) {
	e.runParallel(len(tasks), func(i int) { tasks[i]() })
}

// runParallel executes f(0..n-1) on up to e.workers goroutines and
// returns once every call has completed. Goroutines are spawned per
// call and pull indices from a shared atomic counter: no persistent
// pool means nested fan-outs cannot deadlock and a finished call
// provably leaks nothing.
func (e *engineRun) runParallel(n int, f func(int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// transferDelta computes out = F(in) semi-naïvely: only the in-state
// delta's Added graphs are stepped, their parts folded into the
// statement's accumulator, Removed members' parts retracted, and only
// the dirtied alias buckets re-reduced. Per-bucket reduction is a pure
// function of the bucket's entry set, so the result is bit-identical
// to a UnionAll over every member's part (DESIGN.md §8). A removed
// member whose part was never recorded breaks that invariant and is
// reported as an internal error.
func (e *engineRun) transferDelta(ctx *absem.Context, s *ir.Stmt, in *rsrsg.Set, d rsrsg.Delta) (*rsrsg.Set, error) {
	switch s.Op {
	case ir.OpAssumeNull, ir.OpAssumeNonNull:
		ds := e.deltaState(s.ID)
		if ds.filtered == nil {
			// First visit: seed the cache with the full filter. Later
			// visits fold pure membership deltas into this seed.
			if s.Op == ir.OpAssumeNull {
				ds.filtered = absem.AssumeNullSym(ctx, in, s.XSym)
			} else {
				ds.filtered = absem.AssumeNonNullSym(ctx, in, s.XSym)
			}
		} else if s.Op == ir.OpAssumeNull {
			absem.AssumeNullDeltaSym(ctx, ds.filtered, d.Added, d.Removed, s.XSym)
		} else {
			absem.AssumeNonNullDeltaSym(ctx, ds.filtered, d.Added, d.Removed, s.XSym)
		}
		e.deltaTransfers++
		return ds.filtered.Clone(), nil
	case ir.OpNil, ir.OpMalloc, ir.OpCopy, ir.OpSelNil, ir.OpSelCopy, ir.OpLoad, ir.OpFree:
		ds := e.deltaState(s.ID)
		if ds.acc == nil {
			ds.acc = rsrsg.NewAccum(e.opts.Level)
			ds.parts = make(map[rsg.Digest]*rsrsg.Set)
		}
		removeParts := make([]*rsrsg.Set, 0, len(d.Removed))
		for _, dig := range d.Removed {
			p, ok := ds.parts[dig]
			if !ok {
				return nil, fmt.Errorf("analysis: internal error: statement %d dropped in-state member %v with no recorded transfer part", s.ID, dig)
			}
			removeParts = append(removeParts, p)
		}
		for _, dig := range d.Removed {
			delete(ds.parts, dig)
		}
		addParts, err := e.partsFor(ctx, s, d.Added)
		if err != nil {
			return nil, err
		}
		for i, g := range d.Added {
			ds.parts[g.Digest()] = addParts[i]
		}
		out, dirty := ds.acc.MergeDeltaDirty(addParts, removeParts, e.reduceOpts)
		e.deltaTransfers++
		e.dirtyBuckets += dirty
		return out, nil
	default: // OpNoop, OpEntry, OpExit
		return in.Clone(), nil
	}
}

// partsFor computes the per-graph transfer parts for the given
// (frozen) input graphs of a heap-mutating statement: the new members
// of its in-state delta. With a store configured, each graph first
// probes the store's transfer-memo tier. The remaining steps are
// dispatched over the worker pool when there are enough of them. Each
// job steps one graph through the abstract semantics into its
// pre-assigned slot with no nested executor; the coordinator then
// writes the store write-throughs in input order, so the parts (and
// everything joined from them) are worker-count independent.
func (e *engineRun) partsFor(ctx *absem.Context, s *ir.Stmt, graphs []*rsg.Graph) ([]*rsrsg.Set, error) {
	type job struct {
		g    *rsg.Graph
		dig  rsg.Digest
		slot int
	}
	parts := make([]*rsrsg.Set, 0, len(graphs))
	var jobs []job
	for _, g := range graphs {
		dig := g.Digest()
		// The persistent store rebuilds a hit's part from
		// content-addressed graphs (digest-verified on decode).
		if e.store != nil {
			if part, ok := e.storeMemoGet(s.ID, dig); ok {
				e.storeMemoHits.Add(1)
				parts = append(parts, part)
				continue
			}
		}
		jobs = append(jobs, job{g: g, dig: dig, slot: len(parts)})
		parts = append(parts, nil)
	}
	if e.workers > 1 && len(jobs) >= parallelFanoutMin {
		e.parallelTransfers.Add(1)
		e.parallelJobs.Add(int64(len(jobs)))
		// The workers share one copy of the context without the
		// executor, so they never nest parallelism; nothing in the
		// context is written during a transfer.
		jctx := *ctx
		jctx.Opts.Exec = nil
		e.runParallel(len(jobs), func(i int) {
			if e.ctx.Err() != nil {
				return
			}
			parts[jobs[i].slot] = stepGraphSet(&jctx, s, jobs[i].g)
		})
		if e.ctx.Err() != nil {
			return nil, e.cancelErr()
		}
	} else {
		for _, j := range jobs {
			parts[j.slot] = stepGraphSet(ctx, s, j.g)
		}
	}
	if e.store != nil {
		for _, j := range jobs {
			e.storeMemoPut(s.ID, j.dig, parts[j.slot])
		}
	}
	return parts, nil
}

// stepGraphSet steps one graph through a statement's abstract
// semantics and collects the outputs into a fresh set.
func stepGraphSet(ctx *absem.Context, s *ir.Stmt, g *rsg.Graph) *rsrsg.Set {
	part := rsrsg.New()
	for _, og := range stepGraph(ctx, s, g) {
		part.AddStats(og, ctx.Opts.Stats)
	}
	return part
}
