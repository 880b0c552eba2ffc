package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"

	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
	"repro/internal/store"
)

// This file wires the persistent content-addressed store (DESIGN.md
// §13) into the engine. With Options.Store set, a run consults the
// store before analyzing and records into it afterwards; without it,
// nothing here executes. Three modes fall out of the planning step:
//
//   - warm: an eligible snapshot of this exact (program digest, options
//     fingerprint) exists — restore every statement's out-state and
//     return the recorded outcome without a single transfer;
//   - edit: a converged snapshot of a *previous version* of the program
//     (same name, same fingerprint) exists — diff statement digests,
//     restore the out-states of unchanged statements outside the
//     changed statements' forward cone, and seed the worklist with only
//     the cone;
//   - cold: no usable snapshot — run normally and, on a clean outcome,
//     record the per-statement fixpoint as a new snapshot.
//
// Independently of the mode, per-graph transfers gain a persistent
// memo tier: each graph to step first probes the store by (transfer
// key, input digest), and computed parts are written through. Every store
// read failure — absent record, corrupt bytes, digest mismatch —
// degrades to a miss (ultimately to a cold run), never to a wrong
// result: graphs are re-digested on decode and verified against their
// content address.

// persistSchema versions the key derivation: bumping it orphans every
// existing store entry (they simply stop matching), which is the
// invalidation story for semantics changes in the engine. Schema 2:
// the WTO scheduler landed (DESIGN.md §14) — widening points moved.
// Schema 3: WTO became the only scheduler, and the scheduler and the
// RPO widening cap left the fingerprint. Schema 4: the legacy soundness
// replay left the options, and the per-statement graph bound became
// the constant maxGraphsPerStmt.
const persistSchema = 4

type persistMode int

const (
	persistOff persistMode = iota
	persistCold
	persistWarm
	persistEdit
)

// persistPlan is the planning result consumed by Run.
type persistPlan struct {
	mode     persistMode
	fp       uint64
	progDig  store.Key
	stmtDigs []ir.StmtDigest
	// restore maps statement IDs to their snapshot out-states (all
	// visited statements for warm; reachable non-cone statements for
	// edit).
	restore map[int]*rsrsg.Set
	// seed lists the statements the edit mode pushes onto the worklist:
	// the changed statements plus their forward cone, restricted to the
	// entry-reachable part of the new CFG.
	seed []int
	// outcome is the recorded outcome a warm run replays (nil or
	// ErrNoConvergence).
	outcome error
}

// optionsFingerprint hashes every option that changes analysis
// *results* — level and the reduction knobs — plus the engine constants
// that do: the per-statement graph bound and the widening threshold. Budgets (MaxVisits, NodeBudget, Timeout) are deliberately
// excluded and handled by the snapshot eligibility rules; Workers is
// excluded because any setting produces bit-identical digests
// (DESIGN.md §7).
func optionsFingerprint(opts Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	put(persistSchema)
	put(uint64(opts.Level))
	putBool(opts.DisableJoin)
	putBool(opts.DisableCyclePrune)
	putBool(opts.NoCompress)
	putBool(opts.TouchAllPvars)
	// Both constants are result-affecting: the graph bound decides when
	// compatible graphs are force-joined, the widening threshold which
	// loop heads accumulate their out-states.
	put(maxGraphsPerStmt)
	put(widenHeadAfter)
	return h.Sum64()
}

// stmtTransferKeys derives each statement's persistent transfer-memo
// key: fingerprint + context-free transfer digest. Under TouchAllPvars
// the effective induction set is the whole pvar table, which the
// transfer digest does not see, so the sorted pvar list is mixed in.
func stmtTransferKeys(prog *ir.Program, opts Options, fp uint64) []store.Key {
	tds := prog.TransferDigests()
	var extra []byte
	if opts.TouchAllPvars {
		names := make([]string, 0, len(prog.PtrVars))
		for v := range prog.PtrVars {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			extra = binary.AppendUvarint(extra, uint64(len(v)))
			extra = append(extra, v...)
		}
	}
	var fpb [8]byte
	binary.LittleEndian.PutUint64(fpb[:], fp)
	keys := make([]store.Key, len(tds))
	for i := range tds {
		h := sha256.New()
		h.Write(fpb[:])
		h.Write(tds[i][:])
		h.Write(extra)
		copy(keys[i][:], h.Sum(nil)[:16])
	}
	return keys
}

// warmEligible decides whether a snapshot may be served wholesale for a
// request with the given (defaulted) options. A converged snapshot is
// the fixpoint: any visit budget at least as large as the visits the
// recording run used reaches the identical state. A non-converged
// snapshot is a budget-bounded prefix — a pure function of program,
// options and the exact budget — so it serves only exact-budget
// matches. NodeBudget must match exactly in both cases: a smaller
// budget could have aborted the recording run earlier.
func warmEligible(snap *store.Snapshot, opts Options) bool {
	if opts.NodeBudget != snap.NodeBudget {
		return false
	}
	if snap.Converged {
		return opts.MaxVisits >= snap.Visits
	}
	return opts.MaxVisits == snap.VisitBudget
}

// planPersist probes the store and produces the run plan. Called after
// option defaulting and induction annotation (the digests need both).
// Also arms the engine's persistent memo tier (stmtKeys) whenever a
// store is configured, regardless of the mode chosen.
func (e *engineRun) planPersist(prog *ir.Program, opts Options) *persistPlan {
	if opts.Store == nil {
		return &persistPlan{mode: persistOff}
	}
	st := opts.Store
	fp := optionsFingerprint(opts)
	e.store = st
	e.stmtKeys = stmtTransferKeys(prog, opts, fp)
	plan := &persistPlan{
		mode:     persistCold,
		fp:       fp,
		progDig:  store.Key(prog.Digest()),
		stmtDigs: prog.StmtDigests(),
	}
	if !opts.forceEditDelta {
		if snap, ok := st.Snapshot(plan.progDig, fp); ok {
			if warmEligible(snap, opts) && len(snap.Stmts) == len(prog.Stmts) {
				if restore, ok := loadSnapshotOuts(st, snap, nil, e.rec); ok {
					plan.mode = persistWarm
					plan.restore = restore
					if !snap.Converged {
						plan.outcome = ErrNoConvergence
					}
					return plan
				}
			}
			// A snapshot for this exact program exists but cannot be
			// served (budget mismatch, or its graphs are unreadable):
			// run cold rather than edit-delta against it.
			return plan
		}
	}
	prev, ok := st.SnapshotByName(prog.Name, fp)
	if !ok || !prev.Converged {
		return plan
	}
	e.planEdit(plan, prog, prev)
	return plan
}

// planEdit upgrades a cold plan to edit-delta against prev when the
// diff supports it. The algorithm (DESIGN.md §13):
//
//  1. changed(t) := t's contextual statement digest differs from the
//     snapshot's record at the same ID (or has no record). The digest
//     covers the operation, operands, loop context AND the predecessor
//     wiring with its per-edge TOUCH-erase sets, so CFG rewiring marks
//     every statement whose in-flow changed.
//  2. cone := forward closure of the changed set over the new CFG's
//     successor edges. Every predecessor of a non-cone statement is
//     itself non-cone (a cone predecessor would pull it in), so the
//     snapshot values of non-cone statements remain valid fixpoint
//     values: their entire dataflow past is unchanged.
//  3. Restore the out-states of entry-reachable non-cone statements;
//     seed the worklist with the entry-reachable cone (except the
//     entry, whose out-state is the axiom entry set, never computed).
//
// Statements that became reachable or unreachable are always in the
// cone: reachability can only change through a successor-list edit,
// which changes the successors' predecessor lists and hence their
// digests.
func (e *engineRun) planEdit(plan *persistPlan, prog *ir.Program, prev *store.Snapshot) {
	n := len(prog.Stmts)
	prevByID := make(map[int]*store.SnapStmt, len(prev.Stmts))
	for i := range prev.Stmts {
		prevByID[prev.Stmts[i].ID] = &prev.Stmts[i]
	}
	reachable := make([]bool, n)
	{
		stack := []int{prog.Entry}
		reachable[prog.Entry] = true
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range prog.Stmts[id].Succs {
				if !reachable[s] {
					reachable[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	cone := make([]bool, n)
	var stack []int
	mark := func(id int) {
		if !cone[id] {
			cone[id] = true
			stack = append(stack, id)
		}
	}
	for id := 0; id < n; id++ {
		ss := prevByID[id]
		if ss == nil || ss.Digest != store.Key(plan.stmtDigs[id]) {
			mark(id)
		} else if reachable[id] && !ss.HasOut {
			// Defensive: reachable now, never visited before. The digest
			// match should make this impossible; treat it as changed
			// rather than leaving a reachable statement unanalyzed.
			mark(id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range prog.Stmts[id].Succs {
			mark(s)
		}
	}
	skip := func(id int) bool { return id >= n || cone[id] || !reachable[id] }
	restore, ok := loadSnapshotOuts(e.store, prev, skip, e.rec)
	if !ok {
		return // a referenced graph is unreadable: stay cold
	}
	var seed []int
	for id := 0; id < n; id++ {
		if cone[id] && reachable[id] && id != prog.Entry {
			seed = append(seed, id)
		}
	}
	plan.mode = persistEdit
	plan.restore = restore
	plan.seed = seed
}

// loadSnapshotOuts materializes the out-states recorded in a snapshot,
// skipping statements for which skip returns true. Returns ok=false if
// any referenced graph cannot be loaded and verified.
func loadSnapshotOuts(st *store.Store, snap *store.Snapshot, skip func(id int) bool, rec *rsg.RunStats) (map[int]*rsrsg.Set, bool) {
	out := make(map[int]*rsrsg.Set, len(snap.Stmts))
	for _, ss := range snap.Stmts {
		if !ss.HasOut || (skip != nil && skip(ss.ID)) {
			continue
		}
		graphs := make([]*rsg.Graph, len(ss.Out))
		for i, d := range ss.Out {
			g, ok := st.Graph(d)
			if !ok {
				return nil, false
			}
			graphs[i] = g
		}
		out[ss.ID] = rsrsg.RestoreSetStats(graphs, rec)
	}
	return out, true
}

// persistFinish records a cold run's outcome as a snapshot. Only cold
// (unseeded) runs write snapshots — a warm run would be a no-op
// rewrite, and recording seeded runs would let any seeding bug
// propagate through the store. Clean outcomes only: a converged
// fixpoint, or the deterministic bounded prefix of an ErrNoConvergence
// run. Timeouts and budget aborts are machine-dependent cut points and
// are not recorded. Returns err unchanged so call sites can tail-call.
func (e *engineRun) persistFinish(plan *persistPlan, prog *ir.Program, res *Result, err error) error {
	if plan.mode != persistCold {
		return err
	}
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		return err
	}
	snap := &store.Snapshot{
		Prog:        plan.progDig,
		Name:        prog.Name,
		Fp:          plan.fp,
		Converged:   err == nil,
		VisitBudget: e.opts.MaxVisits,
		NodeBudget:  e.opts.NodeBudget,
		Visits:      res.Stats.Visits,
		Stmts:       make([]store.SnapStmt, 0, len(prog.Stmts)),
	}
	for id := range prog.Stmts {
		ss := store.SnapStmt{ID: id, Digest: store.Key(plan.stmtDigs[id])}
		if out := res.Out[id]; out != nil {
			putErr := error(nil)
			out.ForEachEntry(func(g *rsg.Graph, _ rsg.Digest) {
				if e := e.store.PutGraph(g); e != nil {
					putErr = e
				}
			})
			if putErr != nil {
				return err // disk trouble: skip the snapshot, keep the outcome
			}
			ss.HasOut = true
			ss.Out = out.MemberDigests()
		}
		snap.Stmts = append(snap.Stmts, ss)
	}
	_ = e.store.PutSnapshot(snap)
	return err
}

// storeMemoGet probes the persistent transfer-memo tier for one
// (statement, input digest) pair and rebuilds the cached part.
func (e *engineRun) storeMemoGet(id int, in rsg.Digest) (*rsrsg.Set, bool) {
	digs, ok := e.store.Memo(e.stmtKeys[id], in)
	if !ok {
		return nil, false
	}
	graphs := make([]*rsg.Graph, len(digs))
	for i, d := range digs {
		g, ok := e.store.Graph(d)
		if !ok {
			return nil, false
		}
		graphs[i] = g
	}
	return rsrsg.RestoreSetStats(graphs, e.rec), true
}

// storeMemoPut writes one computed transfer part through to the store:
// member graphs first (content-addressed, so duplicates are free), then
// the memo record. Best-effort — a write failure only loses caching.
func (e *engineRun) storeMemoPut(id int, in rsg.Digest, part *rsrsg.Set) {
	putErr := error(nil)
	part.ForEachEntry(func(g *rsg.Graph, _ rsg.Digest) {
		if e := e.store.PutGraph(g); e != nil {
			putErr = e
		}
	})
	if putErr != nil {
		return
	}
	_ = e.store.PutMemo(e.stmtKeys[id], in, part.MemberDigests())
}
