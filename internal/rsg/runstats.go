package rsg

import "sync/atomic"

// RunStats counts the digest, freeze and intern work done on behalf of
// one analysis run. It is the package's only tally: there is no
// process-wide twin, so a process running several analyses at once
// (the daemon's steady state) still reports each run's own work. The
// work is recorded by the recorder-aware entry points (InternStats,
// DigestStats, and the freeze an intern miss performs); Freeze, Digest
// and Intern record nothing.
//
// A nil *RunStats is valid everywhere and records nothing.
type RunStats struct {
	graphsFrozen    atomic.Uint64
	digestsComputed atomic.Uint64
	digestHits      atomic.Uint64
	internHits      atomic.Uint64
	internMisses    atomic.Uint64
}

// CacheStats is a snapshot of one RunStats. The intern table's current
// size is not a counter; InternedGraphs reports it.
type CacheStats struct {
	// GraphsFrozen counts the graphs frozen by an intern miss.
	GraphsFrozen uint64
	// DigestsComputed counts full digest computations (one per intern of
	// an unfrozen graph, plus any DigestStats call on an unfrozen graph).
	DigestsComputed uint64
	// DigestCacheHits counts DigestStats calls served from the frozen
	// cache.
	DigestCacheHits uint64
	// InternHits counts interns that returned a live canonical instance.
	// InternMisses counts interns that made their graph canonical:
	// first-time interns, and re-interns of a form whose canonical
	// instance was collected (the table holds its graphs weakly), so a
	// form can miss more than once.
	InternHits   uint64
	InternMisses uint64
	// PoolGets and PoolNews are always 0: the scratch pools are not
	// counted. The fields stay only because the repository benchmark
	// (perfbench) still reads them.
	PoolGets uint64
	PoolNews uint64
}

func (r *RunStats) addFrozen() {
	if r != nil {
		r.graphsFrozen.Add(1)
	}
}

func (r *RunStats) addComputed() {
	if r != nil {
		r.digestsComputed.Add(1)
	}
}

func (r *RunStats) addDigestHit() {
	if r != nil {
		r.digestHits.Add(1)
	}
}

func (r *RunStats) addInternHit() {
	if r != nil {
		r.internHits.Add(1)
	}
}

func (r *RunStats) addInternMiss() {
	if r != nil {
		r.internMisses.Add(1)
	}
}

// Snapshot returns the counters recorded so far; a nil recorder reads
// all zero.
func (r *RunStats) Snapshot() CacheStats {
	if r == nil {
		return CacheStats{}
	}
	return CacheStats{
		GraphsFrozen:    r.graphsFrozen.Load(),
		DigestsComputed: r.digestsComputed.Load(),
		DigestCacheHits: r.digestHits.Load(),
		InternHits:      r.internHits.Load(),
		InternMisses:    r.internMisses.Load(),
	}
}

// DigestStats is Digest, counting into rec a digest computation on an
// unfrozen graph or a cache hit on a frozen one.
func (g *Graph) DigestStats(rec *RunStats) Digest {
	if g.frozen {
		rec.addDigestHit()
		return g.digest
	}
	rec.addComputed()
	return computeDigest(g)
}

// InternStats is Intern, counting into rec the digest computation, the
// freeze, and the intern hit or miss.
func InternStats(g *Graph, rec *RunStats) *Graph {
	d := g.digest
	var cs *canonScratch
	if !g.frozen {
		// The scratch outlives the probe: a miss freezes g with the
		// SPATH sets the digest built there.
		rec.addComputed()
		cs = getCanonScratch()
		defer putCanonScratch(cs)
		d = digestIn(g, cs)
	}
	s := internShard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.lookupLocked(g, d, rec); old != nil {
		return old
	}
	if !g.frozen {
		g.freezeWithDigest(d, cs, rec)
	}
	s.insertLocked(g, d, rec)
	return g
}
