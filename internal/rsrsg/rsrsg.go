// Package rsrsg implements the Reduced Set of Reference Shape Graphs
// (Sect. 4 of the paper): the set of RSGs associated with one program
// sentence. The set is "reduced" because graphs that satisfy the
// COMPATIBLE predicate are fused by JOIN, keeping the number of RSGs
// per sentence bounded and the analysis practicable.
package rsrsg

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"weak"

	"repro/internal/rsg"
)

// entry caches the derived keys of one member graph. Graphs inside a
// Set are frozen (rsg.Graph.Freeze) on insertion: any mutation panics,
// so the immutability the analysis relies on is enforced by the type
// system, not convention. Member graphs are interned, so
// structurally-identical graphs share one instance across sets.
type entry struct {
	g     *rsg.Graph
	dig   rsg.Digest
	alias string
}

// newEntry freezes and interns g and caches its derived keys, counting
// the digest/freeze/intern work into rec (Options.Stats): this is the
// only place outside the store's decoder where graphs enter the
// interner, so the recorder sees all of one run's interning.
func newEntry(g *rsg.Graph, rec *rsg.RunStats) entry {
	g = rsg.InternStats(g, rec)
	return entry{g: g, dig: g.DigestStats(rec), alias: rsg.AliasKey(g)}
}

// joinKey identifies one ordered pair of canonical (interned) graphs at
// one analysis level.
type joinKey struct {
	lvl  rsg.Level
	a, b rsg.Digest
}

// JoinCache memoizes the JOIN+COMPRESS results of bucket reduction,
// keyed by the operands' canonical digests and the analysis level. It
// is semi-naïve engine state: the engine shares one cache across every
// statement's accumulator (NewAccum), because dirty-bucket re-reduction
// replays join chains over raw sets that grew by a handful of digests,
// and the same canonical pairs recur across statements as graphs
// propagate through the CFG. JOIN+COMPRESS is a pure function of its
// frozen operands, so a cached result is bit-identical to recomputation
// at any worker count; the mutex only guards the map, never the
// computation, and a racing duplicate computation is harmless — both
// sides intern to the same canonical graph. Callers without a cache (a
// plain Reduce) recompute from scratch. COMPATIBLE verdicts are not
// cached: a frozen graph pins its SPATH sets, so a verdict costs a few
// property compares, less than a locked map probe.
//
// Like the intern table, the cache does not own the graphs it returns:
// a join result is held weakly, so one that no set holds any more is
// collected, and a later hit on its key recomputes it (see joinedEntry).
type JoinCache struct {
	mu     sync.Mutex
	joined map[joinKey]joinedEntry
}

// joinedEntry is one cached join result: the graph, held weakly, and
// the keys newEntry derived from it. Recomputing a collected graph
// yields the same digest and alias key, because JOIN+COMPRESS is pure.
type joinedEntry struct {
	g     weak.Pointer[rsg.Graph]
	dig   rsg.Digest
	alias string
}

// joinCacheCap bounds the cache's map; a map that reaches the cap is
// reset wholesale — entries are pure-function results, so eviction only
// costs recomputation. Entries of collected join results still hold
// their keys, so the map needs the cap even though its graphs are weak.
const joinCacheCap = 1 << 15

// NewJoinCache returns an empty join cache for sharing across Accums.
func NewJoinCache() *JoinCache {
	return &JoinCache{joined: make(map[joinKey]joinedEntry)}
}

// join is JOIN+COMPRESS in interned entry form through the cache; a nil
// receiver recomputes. rec attributes a cache miss's intern work to the
// calling run; a cache hit touches no counters (the entry's keys were
// computed when it was first joined). A hit whose graph was collected
// is a miss.
func (c *JoinCache) join(lvl rsg.Level, a, b entry, rec *rsg.RunStats) entry {
	k := joinKey{lvl: lvl, a: a.dig, b: b.dig}
	if c != nil {
		c.mu.Lock()
		je := c.joined[k]
		c.mu.Unlock()
		if g := je.g.Value(); g != nil {
			return entry{g: g, dig: je.dig, alias: je.alias}
		}
	}
	merged := rsg.Join(lvl, a.g, b.g)
	rsg.Compress(merged, lvl)
	e := newEntry(merged, rec)
	if c != nil {
		c.mu.Lock()
		if len(c.joined) >= joinCacheCap {
			c.joined = make(map[joinKey]joinedEntry, 64)
		}
		c.joined[k] = joinedEntry{g: weak.Make(e.g), dig: e.dig, alias: e.alias}
		c.mu.Unlock()
	}
	return e
}

// Set is one RSRSG: a reduced set of RSGs, deduplicated by canonical
// digest. Entries are kept sorted by digest, so iteration order is
// deterministic without per-call sorting, membership is a binary
// search, and the set-level digest is maintained incrementally so
// Equal is O(1).
type Set struct {
	entries []entry // sorted ascending by dig
	// absorbed records every digest ever folded in through
	// MergeDeltaBatch, including graphs that were joined away; it
	// prevents re-absorbing (and re-joining) recurring contributions
	// during the fixed point. Lazily initialized by MergeDeltaBatch.
	absorbed map[rsg.Digest]struct{}
	// absorbedContribs records whole contribution sets already folded in
	// through MergeDeltaBatch, keyed by the same (length, set digest)
	// pair Equal compares. A statement is revisited whenever any
	// predecessor changes, so the out-states of its unchanged
	// predecessors are re-merged verbatim on every visit; this lets
	// MergeDeltaBatch dismiss such repeats in O(1) instead of
	// re-scanning every member.
	absorbedContribs map[contribKey]struct{}
	// setDig is the XOR of the member digests: order-independent,
	// updated in O(1) per insertion/removal. Two sets with equal length
	// and equal setDig hold the same members (up to hash collision).
	setDig rsg.Digest
	// numNodes/numLinks are the totals across member graphs, maintained
	// incrementally so the engine's per-visit accounting is O(1).
	numNodes int
	numLinks int
}

// New returns an empty RSRSG.
func New() *Set { return &Set{} }

// FromGraphs builds a reduced set from the given graphs at the given
// level: graphs are deduplicated, then compatible graphs are joined.
func FromGraphs(lvl rsg.Level, graphs []*rsg.Graph, opts Options) *Set {
	s := &Set{entries: make([]entry, 0, len(graphs))}
	for _, g := range graphs {
		s.AddStats(g, opts.Stats)
	}
	s.Reduce(lvl, opts)
	return s
}

// Exec runs a batch of independent tasks and returns when all have
// completed. Implementations may run the tasks concurrently (the
// analysis engine supplies a worker-pool executor); a nil Exec runs
// them sequentially in order. Tasks handed to an Exec never share
// mutable state, so any schedule produces the same result.
type Exec func(tasks []func())

// Options tunes the reduction. The zero value is the paper's behaviour.
type Options struct {
	// Exec, when non-nil, runs the per-alias-bucket reduction tasks of
	// Reduce, MergeDeltaBatch and Accum.MergeDeltaDirty concurrently.
	// Buckets are independent — compatibility requires equal alias
	// keys, digest-equal graphs have equal alias keys, and JOIN/COMPRESS
	// preserve the alias relation (C_SPATH demands equal zero-length
	// paths, so nodes referenced by different pvars never merge) — and
	// results are recombined in sorted bucket-key order, so the outcome
	// is bit-identical to a sequential run.
	Exec Exec
	// Joins, when non-nil, memoizes pairwise JOIN+COMPRESS results
	// across Reduce/MergeDeltaBatch/Accum calls (see JoinCache). The
	// join is a pure function of its frozen operands, so supplying a
	// cache never changes results. The semi-naïve engine shares one
	// cache per run.
	Joins *JoinCache
	// Stats, when non-nil, counts the rsg digest/freeze/intern work
	// done on this run's behalf. It is the run's only cache tally, so a
	// process running several analyses at once (the daemon) still
	// reports each run's own work. Recording never changes results.
	Stats *rsg.RunStats
}

// run executes tasks through opts.Exec, falling back to a sequential
// loop when no executor is configured or the batch is trivial.
func (o Options) run(tasks []func()) {
	if o.Exec == nil || len(tasks) < 2 {
		for _, t := range tasks {
			t()
		}
		return
	}
	o.Exec(tasks)
}

// Add freezes g and inserts it if no digest-identical graph is present.
func (s *Set) Add(g *rsg.Graph) bool {
	return s.AddStats(g, nil)
}

// AddStats is Add with the freeze/intern work attributed to rec
// (typically Options.Stats); a nil rec is identical to Add.
func (s *Set) AddStats(g *rsg.Graph, rec *rsg.RunStats) bool {
	return s.addEntry(newEntry(g, rec))
}

// search returns the position of dig in the digest-sorted es, or the
// position it would be inserted at, and whether it is present.
func search(es []entry, dig rsg.Digest) (int, bool) {
	return slices.BinarySearchFunc(es, dig, func(e entry, d rsg.Digest) int { return e.dig.Compare(d) })
}

// addEntry inserts e at its sorted position unless a digest-identical
// member exists, keeping the set digest and totals in sync.
func (s *Set) addEntry(e entry) bool {
	i, dup := search(s.entries, e.dig)
	if dup {
		return false
	}
	s.entries = slices.Insert(s.entries, i, e)
	xorDigest(&s.setDig, e.dig)
	s.numNodes += e.g.NumNodes()
	s.numLinks += e.g.NumLinks()
	return true
}

// removeEntry deletes the member with the given digest, if present.
func (s *Set) removeEntry(dig rsg.Digest) bool {
	i, ok := search(s.entries, dig)
	if !ok {
		return false
	}
	e := s.entries[i]
	s.entries = slices.Delete(s.entries, i, i+1)
	xorDigest(&s.setDig, dig)
	s.numNodes -= e.g.NumNodes()
	s.numLinks -= e.g.NumLinks()
	return true
}

// Remove deletes the member with the given digest, if present. Used by
// the engine's incremental filter caches (Assume* delta variants).
func (s *Set) Remove(dig rsg.Digest) bool { return s.removeEntry(dig) }

// reset clears the member state (absorbed history is kept).
func (s *Set) reset() {
	s.entries = s.entries[:0]
	s.setDig = rsg.Digest{}
	s.numNodes, s.numLinks = 0, 0
}

func xorDigest(dst *rsg.Digest, d rsg.Digest) {
	for i := range dst {
		dst[i] ^= d[i]
	}
}

// ForEachEntry calls f with every member graph and its cached canonical
// digest, in deterministic (digest) order. Entries are kept sorted on
// insertion, so this is a plain scan.
func (s *Set) ForEachEntry(f func(g *rsg.Graph, dig rsg.Digest)) {
	for _, e := range s.entries {
		f(e.g, e.dig)
	}
}

// Graphs returns the member RSGs in deterministic (digest) order.
func (s *Set) Graphs() []*rsg.Graph {
	out := make([]*rsg.Graph, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.g
	}
	return out
}

// Len returns the number of RSGs in the set.
func (s *Set) Len() int { return len(s.entries) }

// NumNodes returns the total node count across all member graphs. The
// counter is maintained on insertion/removal, so this is O(1).
func (s *Set) NumNodes() int { return s.numNodes }

// NumLinks returns the total NL entry count across all member graphs,
// maintained incrementally like NumNodes.
func (s *Set) NumLinks() int { return s.numLinks }

// Reduce joins compatible member graphs until no two members are
// compatible (the "union of RSGs" of Sect. 4.3), compressing each join
// result. Only graphs with equal alias relations can be compatible, so
// the search works per alias bucket (see reduceBuckets).
func (s *Set) Reduce(lvl rsg.Level, opts Options) {
	if len(s.entries) < 2 {
		return
	}
	// The entries are digest-sorted, so every bucket is too.
	buckets := make(map[string][]entry)
	var order []string
	for _, e := range s.entries {
		if _, ok := buckets[e.alias]; !ok {
			order = append(order, e.alias)
		}
		buckets[e.alias] = append(buckets[e.alias], e)
	}
	sort.Strings(order)
	groups := make([][]entry, len(order))
	for i, key := range order {
		groups[i] = buckets[key]
	}
	results := reduceBuckets(lvl, groups, opts)
	s.reset()
	for _, group := range results {
		for _, e := range group {
			s.addEntry(e)
		}
	}
}

// reduceBuckets reduces each digest-sorted alias bucket of groups and
// returns the results in the order of groups; a bucket of fewer than
// two entries passes through. Buckets are independent, so the
// reductions run as tasks through opts.Exec (concurrently when the
// engine provides a pool), and each result depends on its bucket alone,
// whatever the schedule. Every result is a fresh slice: the callers'
// buckets are neither resliced nor shared.
func reduceBuckets(lvl rsg.Level, groups [][]entry, opts Options) [][]entry {
	results := make([][]entry, len(groups))
	var tasks []func()
	for i, group := range groups {
		if len(group) < 2 {
			results[i] = slices.Clone(group)
			continue
		}
		tasks = append(tasks, func() {
			results[i] = reduceGroup(lvl, slices.Clone(group), opts.Joins, opts.Stats)
		})
	}
	opts.run(tasks)
	return results
}

// reduceGroup joins compatible graphs within one alias bucket until a
// fixed point, reslicing group. Member graphs are frozen, so SPATH sets
// come from the freeze-time cache. jc, when non-nil, memoizes the join
// results across calls (the Accum's dirty-bucket replays); nil
// recomputes them.
func reduceGroup(lvl rsg.Level, group []entry, jc *JoinCache, rec *rsg.RunStats) []entry {
	for {
		joined := false
	scan:
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if !rsg.CompatibleSP(lvl, group[i].g, group[j].g) {
					continue
				}
				e := jc.join(lvl, group[i], group[j], rec)
				ng := make([]entry, 0, len(group)-1)
				for k := range group {
					if k != i && k != j {
						ng = append(ng, group[k])
					}
				}
				group = append(ng, e)
				joined = true
				break scan
			}
		}
		if !joined {
			return dedupe(group)
		}
	}
}

func dedupe(group []entry) []entry {
	seen := make(map[rsg.Digest]struct{}, len(group))
	out := group[:0]
	for _, e := range group {
		if _, ok := seen[e.dig]; ok {
			continue
		}
		seen[e.dig] = struct{}{}
		out = append(out, e)
	}
	return out
}

// Delta is the membership change reported by one MergeDeltaBatch call,
// in digest order: Added holds the graphs that are members now but were
// not before the call, and Removed the digests of former members that
// were joined away. The two never share a digest, so no netting is
// needed (see mergeEntries). The engine's semi-naïve transfer consumes
// the delta: only Added graphs are stepped through the abstract
// semantics, and only the parts of Removed members are retracted from
// the cached out-state.
type Delta struct {
	Added   []*rsg.Graph
	Removed []rsg.Digest
}

// Empty reports whether the call left the membership unchanged.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// MergeDeltaBatch is the engine's in-state accumulation primitive: it
// folds a visit's contributions into s in one reduction round and
// returns the membership Delta across the whole batch. The
// genuinely-new entries of every contribution (in order) form a single
// delta queue, so the per-round fixed costs — bucket snapshots and task
// dispatch — are paid once per visit. Re-reduction is
// incremental: only pairs involving a new (or newly-joined) graph are
// tested for compatibility, because the existing members are already
// pairwise incompatible. In-states grow monotonically, each growth step
// costs O(delta x bucket) instead of O(bucket^2), and the returned
// delta feeds the semi-naïve transfer.
func (s *Set) MergeDeltaBatch(lvl rsg.Level, contribs []*Set, opts Options) Delta {
	var delta []entry
	for _, other := range contribs {
		delta = s.absorbContrib(other, delta)
	}
	if len(delta) == 0 {
		return Delta{}
	}
	return s.mergeEntries(lvl, delta, opts)
}

// absorbContrib folds one contribution into the absorbed history and
// appends its genuinely-new entries to delta. A contribution whose
// (length, set digest) pair was fully absorbed before is dismissed in
// O(1).
func (s *Set) absorbContrib(other *Set, delta []entry) []entry {
	if other == nil || len(other.entries) == 0 {
		return delta
	}
	ck := contribKey{n: len(other.entries), dig: other.setDig}
	if _, done := s.absorbedContribs[ck]; done {
		return delta
	}
	if s.absorbed == nil {
		s.absorbed = make(map[rsg.Digest]struct{}, len(s.entries))
		for _, e := range s.entries {
			s.absorbed[e.dig] = struct{}{}
		}
	}
	for _, e := range other.entries {
		if _, seen := s.absorbed[e.dig]; seen {
			continue
		}
		s.absorbed[e.dig] = struct{}{}
		delta = append(delta, e)
	}
	// Every member of other is now in the absorbed history, so merging
	// an identical contribution again cannot produce a delta; remember
	// the whole set so the repeat is dismissed before the scan above.
	if s.absorbedContribs == nil {
		s.absorbedContribs = make(map[contribKey]struct{}, 8)
	}
	s.absorbedContribs[ck] = struct{}{}
	return delta
}

// mergeEntries admits a collected delta queue and incrementally
// re-reduces the touched alias buckets. A digest belongs to one bucket
// (digest-equal graphs have equal alias keys), and within its bucket it
// either leaves (in the snapshot, not in the final membership) or
// enters (the reverse), never both; so the removals and additions are
// the Delta as they stand.
func (s *Set) mergeEntries(lvl rsg.Level, delta []entry, opts Options) Delta {
	// Process the delta per alias bucket: a new entry can only
	// deduplicate against or join with members of its own bucket
	// (digest-equal graphs have equal alias keys, and compatibility
	// requires them), and a join never leaves its bucket (CSPath demands
	// equal zero-length paths, so JOIN+COMPRESS keeps the alias key).
	// Buckets are therefore independent tasks run through opts.Exec,
	// with their outcomes applied in sorted-key order — bit-identical
	// to sequential processing.
	keyed := make(map[string][]entry)
	var order []string
	for _, e := range delta {
		if _, ok := keyed[e.alias]; !ok {
			order = append(order, e.alias)
		}
		keyed[e.alias] = append(keyed[e.alias], e)
	}
	sort.Strings(order)

	// Snapshot each touched bucket from the current members.
	buckets := make(map[string][]entry, len(order))
	for _, e := range s.entries {
		if _, ok := keyed[e.alias]; ok {
			buckets[e.alias] = append(buckets[e.alias], e)
		}
	}

	results := make([]bucketDelta, len(order))
	tasks := make([]func(), len(order))
	for i, key := range order {
		tasks[i] = func() {
			results[i] = mergeBucket(lvl, buckets[key], keyed[key], opts.Joins, opts.Stats)
		}
	}
	opts.run(tasks)

	var d Delta
	for i, key := range order {
		bd := &results[i]
		inFinal := make(map[rsg.Digest]struct{}, len(bd.final))
		for _, e := range bd.final {
			inFinal[e.dig] = struct{}{}
		}
		for _, e := range buckets[key] {
			if _, keep := inFinal[e.dig]; !keep {
				s.removeEntry(e.dig)
				d.Removed = append(d.Removed, e.dig)
			}
		}
		for _, e := range bd.final {
			if s.addEntry(e) {
				d.Added = append(d.Added, e.g)
			}
		}
		for _, dig := range bd.absorbed {
			s.absorbed[dig] = struct{}{}
		}
	}
	slices.SortFunc(d.Added, func(a, b *rsg.Graph) int { return a.Digest().Compare(b.Digest()) })
	slices.SortFunc(d.Removed, rsg.Digest.Compare)
	return d
}

// contribKey identifies a fully-absorbed contribution set by the same
// O(1) (length, set digest) pair Equal compares.
type contribKey struct {
	n   int
	dig rsg.Digest
}

// bucketDelta is the outcome of merging one alias bucket's queue.
type bucketDelta struct {
	// final is the bucket's complete membership after the merge round.
	final []entry
	// absorbed lists the digests of intermediate join results, which
	// must be recorded so recurring contributions are not re-joined.
	absorbed []rsg.Digest
}

// mergeBucket folds queue into bucket — the sequential inner loop of
// the RSRSG accumulation — touching no shared state except the
// internally-synchronized join cache, so buckets can run concurrently.
// Entries already present (by digest) are dropped; an entry compatible
// with a member is joined, compressed, and re-queued; anything else
// becomes a new member. Out-states propagate along the CFG, so the same
// canonical pairs are joined at successive statements — with a shared
// jc those recurrences are map hits.
func mergeBucket(lvl rsg.Level, bucket, queue []entry, jc *JoinCache, rec *rsg.RunStats) bucketDelta {
	var d bucketDelta
	have := make(map[rsg.Digest]struct{}, len(bucket)+len(queue))
	for _, e := range bucket {
		have[e.dig] = struct{}{}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if _, dup := have[e.dig]; dup {
			continue // an identical member already exists
		}
		joined := -1
		for i, old := range bucket {
			if rsg.CompatibleSP(lvl, old.g, e.g) {
				joined = i
				break
			}
		}
		if joined < 0 {
			bucket = append(bucket, e)
			have[e.dig] = struct{}{}
			continue
		}
		old := bucket[joined]
		me := jc.join(lvl, old, e, rec)
		if me.dig == old.dig {
			continue // absorbing e did not change the member
		}
		bucket = append(append([]entry{}, bucket[:joined]...), bucket[joined+1:]...)
		delete(have, old.dig)
		d.absorbed = append(d.absorbed, me.dig)
		queue = append(queue, me)
	}
	d.final = bucket
	return d
}

// UnionAll returns a new set holding the graphs of all the given sets,
// reduced. Cached digests are reused, so no graph is re-canonicalized.
func UnionAll(lvl rsg.Level, sets []*Set, opts Options) *Set {
	total := 0
	for _, s := range sets {
		if s != nil {
			total += len(s.entries)
		}
	}
	out := &Set{entries: make([]entry, 0, total)}
	for _, s := range sets {
		if s == nil {
			continue
		}
		for _, e := range s.entries {
			out.addEntry(e)
		}
	}
	out.Reduce(lvl, opts)
	return out
}

// Digest returns the order-independent set-level digest: the XOR of the
// member digests, maintained incrementally. Equal sets have equal
// digests; two different sets of the same size collide only with hash
// probability (~2^-128).
func (s *Set) Digest() rsg.Digest { return s.setDig }

// Signature returns a canonical textual form of the whole set (the hex
// member digests in sorted order); kept for traces and debugging —
// fixed-point detection uses the O(1) Digest/Equal instead.
func (s *Set) Signature() string {
	var b strings.Builder
	b.Grow(len(s.entries) * 33)
	for i, e := range s.entries {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(e.dig.String())
	}
	return b.String()
}

// Equal reports whether two sets hold the same member graphs. Thanks to
// the incrementally-maintained set digest this is O(1): no signature
// strings are rebuilt or compared.
func (s *Set) Equal(o *Set) bool {
	if s == nil || o == nil {
		return s == o
	}
	return len(s.entries) == len(o.entries) && s.setDig == o.setDig
}

// Clone returns a copy of the set sharing the member graphs. Graphs
// inside a Set are frozen, so sharing is safe and avoids the deep
// copies that would otherwise dominate no-op transfers. The entries are
// already sorted and deduplicated, so the copy is one slice copy.
func (s *Set) Clone() *Set {
	return &Set{
		entries:  append([]entry(nil), s.entries...),
		setDig:   s.setDig,
		numNodes: s.numNodes,
		numLinks: s.numLinks,
	}
}

// Filter returns a set holding the member graphs satisfying pred,
// sharing them (and their cached digests) with the receiver.
func (s *Set) Filter(pred func(*rsg.Graph) bool) *Set {
	out := &Set{entries: make([]entry, 0, len(s.entries))}
	for _, e := range s.entries {
		if pred(e.g) {
			out.addEntry(e)
		}
	}
	return out
}

// String renders a compact summary.
func (s *Set) String() string {
	var b strings.Builder
	for i, g := range s.Graphs() {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(g.String())
	}
	return b.String()
}
