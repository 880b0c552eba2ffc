package rsrsg

import (
	"slices"
	"sort"

	"repro/internal/rsg"
)

// Accum is the semi-naïve accumulator behind one statement's out-state
// (DESIGN.md §8). A heap-mutating statement's transfer is
//
//	out = Reduce(U_{g in members(in)} F(g))
//
// where F(g) is the per-graph transfer part. Accum maintains
// exactly that value incrementally: it holds the refcounted union of
// the live parts' entries (the pre-reduce "raw" state, partitioned by
// alias bucket) plus the cached reduction of every bucket, and
// MergeDeltaDirty re-runs the bucket reduction only where the raw
// contents actually changed. Per-bucket reduction is a pure function of
// the bucket's entry set — both Reduce and the accumulator hand
// reduceBuckets digest-sorted buckets, and COMPRESS/JOIN preserve the
// alias key, so a clean bucket's cached reduction is byte-identical to
// what a full recompute would produce and is reused as-is. Entries are
// refcounted because distinct input graphs routinely step to
// overlapping outputs; an entry leaves its bucket only when its last
// contributing part is retracted.
type Accum struct {
	lvl rsg.Level
	// refs counts, per raw entry digest, how many live parts contribute
	// it; the entry is live in its alias bucket while the count is > 0.
	refs map[rsg.Digest]int
	// raw holds the live pre-reduce entries per alias bucket, sorted
	// ascending by digest (the order Reduce would establish).
	raw map[string][]entry
	// dirty marks buckets whose raw contents changed since the last
	// reduction flush.
	dirty map[string]struct{}
	// reduced caches each bucket's post-reduction entries; out is their
	// union across buckets, maintained incrementally.
	reduced map[string][]entry
	out     *Set
	// snap is the clone of out handed to the last MergeDeltaDirty
	// caller; it is reused verbatim while out is unchanged (a dirty
	// bucket whose re-reduction reproduces the cached entries — the
	// common case near convergence, where new raw graphs join into
	// existing members) and dropped whenever out mutates.
	snap *Set
}

// NewAccum returns an empty accumulator for the given analysis level.
func NewAccum(lvl rsg.Level) *Accum {
	return &Accum{
		lvl:     lvl,
		refs:    make(map[rsg.Digest]int),
		raw:     make(map[string][]entry),
		dirty:   make(map[string]struct{}),
		reduced: make(map[string][]entry),
		out:     New(),
	}
}

// Len returns the number of graphs in the current reduced out-state.
func (a *Accum) Len() int { return a.out.Len() }

// add folds one part's entries into the raw state.
func (a *Accum) add(p *Set) {
	for _, e := range p.entries {
		a.refs[e.dig]++
		if a.refs[e.dig] > 1 {
			continue
		}
		b := a.raw[e.alias]
		i, _ := search(b, e.dig)
		a.raw[e.alias] = slices.Insert(b, i, e)
		a.dirty[e.alias] = struct{}{}
	}
}

// remove retracts one part's entries from the raw state.
func (a *Accum) remove(p *Set) {
	for _, e := range p.entries {
		n := a.refs[e.dig] - 1
		if n > 0 {
			a.refs[e.dig] = n
			continue
		}
		delete(a.refs, e.dig)
		b := a.raw[e.alias]
		i, ok := search(b, e.dig)
		if !ok {
			continue // retraction of a part never added; ignore
		}
		b = slices.Delete(b, i, i+1)
		if len(b) == 0 {
			delete(a.raw, e.alias)
		} else {
			a.raw[e.alias] = b
		}
		a.dirty[e.alias] = struct{}{}
	}
}

// MergeDeltaDirty folds the given part deltas into the accumulator and
// returns the updated reduced out-state plus the number of alias
// buckets whose reduction had to be re-run. Buckets untouched by the
// delta keep their cached reduction. Dirty buckets re-reduce through
// reduceBuckets, as Reduce's do, and results are applied in sorted
// bucket-key order, so the outcome is bit-identical at any worker
// count. The returned set shares its frozen member graphs with the
// accumulator but is independently mutable.
func (a *Accum) MergeDeltaDirty(add, remove []*Set, opts Options) (*Set, int) {
	for _, p := range remove {
		if p != nil {
			a.remove(p)
		}
	}
	for _, p := range add {
		if p != nil {
			a.add(p)
		}
	}
	if len(a.dirty) == 0 {
		if a.snap == nil {
			a.snap = a.out.Clone()
		}
		return a.snap, 0
	}
	keys := make([]string, 0, len(a.dirty))
	for k := range a.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	groups := make([][]entry, len(keys))
	for i, key := range keys {
		groups[i] = a.raw[key]
	}
	// The results are fresh slices, so the raw buckets stay intact for
	// future deltas.
	results := reduceBuckets(a.lvl, groups, opts)

	for i, key := range keys {
		if entriesEqual(a.reduced[key], results[i]) {
			continue // re-reduction reproduced the cached entries
		}
		a.snap = nil
		// Reduced entries inherit their bucket's alias key (JOIN and
		// COMPRESS preserve the alias relation), so per-bucket swaps in
		// the shared out-set cannot collide across buckets.
		for _, e := range a.reduced[key] {
			a.out.removeEntry(e.dig)
		}
		if len(results[i]) == 0 {
			delete(a.reduced, key)
		} else {
			a.reduced[key] = results[i]
		}
		for _, e := range results[i] {
			a.out.addEntry(e)
		}
	}
	dirtied := len(keys)
	a.dirty = make(map[string]struct{}, 4)
	if a.snap == nil {
		a.snap = a.out.Clone()
	}
	return a.snap, dirtied
}

// entriesEqual reports whether two reduced-bucket slices hold the same
// entries in the same order. The bucket reduction pipeline is
// deterministic, so an unchanged bucket reproduces its previous result
// elementwise; a false negative merely costs an unnecessary clone.
func entriesEqual(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].dig != b[i].dig {
			return false
		}
	}
	return true
}
