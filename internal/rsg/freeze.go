package rsg

import (
	"sync"
	"sync/atomic"
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
	cacheStats.digestsComputed.Add(1)
	return g.freezeWithDigest(computeDigest(g), nil)
}

// freezeWithDigest freezes g reusing an already-computed digest (Intern
// probes the digest before deciding whether the freeze is needed). The
// flat encoding already *is* the sorted view, so besides the digest,
// freezing pins only what the RSRSG reduction reads per graph pair: the
// alias key and the positional SPATH sets. Views only output code reads,
// such as Links and Pvars, are computed on demand. rec, when non-nil,
// also attributes the freeze to one run's RunStats.
func (g *Graph) freezeWithDigest(d Digest, rec *RunStats) *Graph {
	g.cAlias = aliasKey(g)
	g.cSPaths = g.spathSets()
	g.frozen = true
	g.digest = d
	cacheStats.graphsFrozen.Add(1)
	rec.addFrozen()
	return g
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
func (g *Graph) Digest() Digest {
	if g.frozen {
		cacheStats.digestHits.Add(1)
		return g.digest
	}
	cacheStats.digestsComputed.Add(1)
	return computeDigest(g)
}

// DigestEqual reports whether two graphs have the same canonical form,
// i.e. Signature(a) == Signature(b).
func DigestEqual(a, b *Graph) bool { return a.Digest() == b.Digest() }

// ---- interning ---------------------------------------------------------

// internCap bounds the global intern table; when a shard fills its
// share, that shard is reset wholesale (an epoch flip) so memory stays
// bounded while the steady-state working set of a fixed point keeps
// hitting.
const internCap = 1 << 15

// internShards splits the intern table by digest prefix so concurrent
// workers interning unrelated graphs do not serialize on one mutex.
// Structurally identical graphs always hash to the same shard (same
// digest), so the one-canonical-instance guarantee is per-digest and
// therefore global. Must be a power of two.
const internShards = 64

const internShardCap = internCap / internShards

// shard is one lock-striped slice of the intern table. The padding
// keeps neighbouring shard locks on distinct cache lines so they do not
// false-share under contention.
type shard struct {
	mu  sync.Mutex
	tab map[Digest]*Graph
	_   [40]byte
}

var internTab [internShards]shard

func internShard(d Digest) *shard {
	return &internTab[int(d[0])&(internShards-1)]
}

// Intern freezes g and returns the canonical instance for its digest:
// the first graph interned with a given canonical form is returned for
// every later structurally-identical graph, so signature-identical
// graphs created independently (e.g. by transfers at different program
// points) collapse to one shared immutable object.
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

// internLocked inserts or retrieves the canonical instance for a frozen
// graph; the shard mutex must be held. rec, when non-nil, also
// attributes the hit/miss to one run's RunStats.
func (s *shard) internLocked(g *Graph, d Digest, rec *RunStats) *Graph {
	if old, ok := s.tab[d]; ok {
		if old == g {
			return g
		}
		cacheStats.internHits.Add(1)
		rec.addInternHit()
		return old
	}
	if s.tab == nil || len(s.tab) >= internShardCap {
		s.tab = make(map[Digest]*Graph, 64)
	}
	s.tab[d] = g
	cacheStats.internMisses.Add(1)
	rec.addInternMiss()
	return g
}

// ---- observability counters -------------------------------------------

// CacheStats is a snapshot of the package-global digest/freeze/intern
// counters. The counters only ever grow; subtract two snapshots (Sub)
// to attribute activity to one analysis run.
type CacheStats struct {
	// GraphsFrozen counts Graph.Freeze calls that froze a graph.
	GraphsFrozen uint64
	// DigestsComputed counts full digest computations (one per freeze,
	// plus any Digest call on an unfrozen graph).
	DigestsComputed uint64
	// DigestCacheHits counts Digest calls served from the frozen cache.
	DigestCacheHits uint64
	// InternHits counts Intern calls that returned an existing canonical
	// instance; InternMisses counts first-time interns.
	InternHits   uint64
	InternMisses uint64
	// PoolGets counts scratch-buffer checkouts from the canon/kernel
	// pools; PoolNews counts the subset that had to allocate a fresh
	// scratch (a low PoolNews/PoolGets ratio means the pools are doing
	// their job).
	PoolGets uint64
	PoolNews uint64
	// MaskSpills counts insertions of a >64th symbol into a bitmask set
	// (the rare spill-slice path of SelSet/PvarSet).
	MaskSpills uint64
}

var cacheStats struct {
	graphsFrozen    atomic.Uint64
	digestsComputed atomic.Uint64
	digestHits      atomic.Uint64
	internHits      atomic.Uint64
	internMisses    atomic.Uint64
	poolGets        atomic.Uint64
	poolNews        atomic.Uint64
	maskSpills      atomic.Uint64
}

// ReadCacheStats returns the current counter values.
func ReadCacheStats() CacheStats {
	return CacheStats{
		GraphsFrozen:    cacheStats.graphsFrozen.Load(),
		DigestsComputed: cacheStats.digestsComputed.Load(),
		DigestCacheHits: cacheStats.digestHits.Load(),
		InternHits:      cacheStats.internHits.Load(),
		InternMisses:    cacheStats.internMisses.Load(),
		PoolGets:        cacheStats.poolGets.Load(),
		PoolNews:        cacheStats.poolNews.Load(),
		MaskSpills:      cacheStats.maskSpills.Load(),
	}
}

// Sub returns the counter-wise difference s - base.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		GraphsFrozen:    s.GraphsFrozen - base.GraphsFrozen,
		DigestsComputed: s.DigestsComputed - base.DigestsComputed,
		DigestCacheHits: s.DigestCacheHits - base.DigestCacheHits,
		InternHits:      s.InternHits - base.InternHits,
		InternMisses:    s.InternMisses - base.InternMisses,
		PoolGets:        s.PoolGets - base.PoolGets,
		PoolNews:        s.PoolNews - base.PoolNews,
		MaskSpills:      s.MaskSpills - base.MaskSpills,
	}
}
