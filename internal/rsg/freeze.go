package rsg

import (
	"runtime"
	"sync"
	"weak"
)

// This file implements the freeze contract: a Graph can be frozen into
// an immutable handle, after which every mutating method panics, the
// alias key and SPATH sets are served from caches built once, and the
// canonical binary digest is memoized. Frozen graphs are safely
// shareable — between RSRSGs, across cache layers, and (in a future
// sharded engine) across goroutines, because no code path may write to
// them. The only way to derive a new graph from a frozen one is Clone,
// which returns an unfrozen deep copy.

// Freeze makes the graph immutable, computes the canonical digest and
// pins the alias key and SPATH sets (see freezeWithDigest). Freezing is
// idempotent; it returns the receiver for chaining.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	cs := getCanonScratch()
	defer putCanonScratch(cs)
	return g.freezeWithDigest(digestIn(g, cs), cs, nil)
}

// freezeWithDigest freezes g reusing an already-computed digest (Intern
// probes the digest before deciding whether the freeze is needed),
// computed in cs. The flat encoding already *is* the sorted view, so
// besides the digest, freezing pins only what the RSRSG reduction reads
// per graph pair: the alias key, the positional SPATH sets, copied out
// of the ones the digest built in cs, and whether the digest's
// canonical order was decided by tie-break keys alone (JoinSubsumed
// reads it). Views only output code reads, such as Links and Pvars,
// are computed on demand. rec counts the freeze.
func (g *Graph) freezeWithDigest(d Digest, cs *canonScratch, rec *RunStats) *Graph {
	g.cAlias = aliasKey(g)
	g.cSPaths = copySPathSets(cs.spaths)
	g.tieFree = !cs.tied
	g.frozen = true
	g.digest = d
	rec.addFrozen()
	return g
}

// copySPathSets returns a copy of sets, laid out as spathsByPos lays
// them out: each set a full window of one backing array, in position
// order.
func copySPathSets(sets []SPathSet) []SPathSet {
	out := make([]SPathSet, len(sets))
	total := 0
	for _, s := range sets {
		total += len(s.paths)
	}
	if total == 0 {
		return out
	}
	paths := make([]SPath, 0, total)
	for i, s := range sets {
		if len(s.paths) > 0 {
			off := len(paths)
			paths = append(paths, s.paths...)
			out[i].paths = paths[off:len(paths):len(paths)]
		}
	}
	return out
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// mustMutate panics when the graph is frozen. Every mutating Graph
// method calls it, enforcing the "graphs inside a Set are immutable"
// contract with the type system instead of convention.
func (g *Graph) mustMutate(op string) {
	if g.frozen {
		panic("rsg: " + op + " on frozen graph (Clone before mutating)")
	}
}

// Digest returns the 128-bit canonical digest of the graph: two graphs
// have equal digests iff their Signatures are equal (up to hash
// collision, negligible at 128 bits). On a frozen graph the digest was
// memoized at freeze time and this is a field read; on a mutable graph
// it is recomputed from scratch on every call.
func (g *Graph) Digest() Digest { return g.DigestStats(nil) }

// ---- interning ---------------------------------------------------------

// internShards splits the intern table by digest prefix so concurrent
// workers interning unrelated graphs do not serialize on one mutex.
// Structurally identical graphs always hash to the same shard (same
// digest), so the one-canonical-instance guarantee is per-digest and
// therefore global. Must be a power of two.
const internShards = 64

// shard is one lock-striped slice of the intern table. The table does
// not own its graphs: each entry is a weak pointer, so a canonical
// instance lives exactly as long as something outside the table holds
// it, and a cleanup registered on the graph deletes its entry once it
// is collected (release). The padding keeps neighbouring shard locks
// on distinct cache lines so they do not false-share under contention.
type shard struct {
	mu  sync.Mutex
	tab map[Digest]weak.Pointer[Graph]
	_   [40]byte
}

var internTab [internShards]shard

func internShard(d Digest) *shard {
	return &internTab[int(d[0])&(internShards-1)]
}

// Intern freezes g and returns the canonical instance for its digest:
// while a graph interned with a given canonical form is alive, it is
// returned for every later structurally-identical graph, so
// signature-identical graphs created independently (e.g. by transfers
// at different program points) collapse to one shared immutable
// object. Once nothing holds the canonical instance it is collected,
// and the next graph of that form becomes canonical in its place; its
// digest is the same, so only pointer identity across the gap changes.
//
// The digest is probed before freezing: a duplicate is discarded
// immediately, so only graphs that become the canonical instance pay
// for the freeze-time view construction.
//
// Intern is safe for concurrent use. The concurrency contract of the
// package is: frozen graphs are immutable and freely shareable across
// goroutines; an *unfrozen* graph (including the g passed here) must be
// owned by a single goroutine until it is frozen or interned.
func Intern(g *Graph) *Graph { return InternStats(g, nil) }

// lookupLocked returns the live canonical instance for d, or nil when
// the table holds none: never interned, or collected and not yet
// released. The shard mutex must be held. rec counts a hit; finding g
// itself is no hit.
func (s *shard) lookupLocked(g *Graph, d Digest, rec *RunStats) *Graph {
	old := s.tab[d].Value()
	if old != nil && old != g {
		rec.addInternHit()
	}
	return old
}

// insertLocked makes the frozen graph g the canonical instance for d
// and counts a miss into rec; the shard mutex must be held and the slot
// must hold no live instance.
func (s *shard) insertLocked(g *Graph, d Digest, rec *RunStats) {
	if s.tab == nil {
		s.tab = make(map[Digest]weak.Pointer[Graph], 64)
	}
	wp := weak.Make(g)
	s.tab[d] = wp
	// Neither the function nor its argument may reach g, or g would
	// never be collected.
	runtime.AddCleanup(g, release, internRef{d: d, wp: wp})
	rec.addInternMiss()
}

// internRef names one intern table entry: the digest slot and the weak
// pointer it was filled with.
type internRef struct {
	d  Digest
	wp weak.Pointer[Graph]
}

// release is the cleanup of a collected canonical instance. It deletes
// the entry only while the slot still holds that instance's pointer: a
// later graph of the same form may have become canonical in between.
func release(r internRef) {
	s := internShard(r.d)
	s.mu.Lock()
	if s.tab[r.d] == r.wp {
		delete(s.tab, r.d)
	}
	s.mu.Unlock()
}

// InternedGraphs returns the number of entries in the intern table,
// summed over the shards. Entries of collected graphs count until their
// cleanup has run.
func InternedGraphs() int {
	n := 0
	for i := range internTab {
		s := &internTab[i]
		s.mu.Lock()
		n += len(s.tab)
		s.mu.Unlock()
	}
	return n
}
