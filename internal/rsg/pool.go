package rsg

import (
	"bytes"
	"sync"
)

// canonScratch is the reusable working state of one signature/digest
// computation (DESIGN.md §10). Everything in it is position-indexed
// (parallel to Graph.ids), grown as needed and recycled through a
// sync.Pool: digesting is the per-freeze hot path and must not allocate
// proportionally to the graph on every call.
//
// Pool discipline: a scratch may only be used between get/put by one
// goroutine, and nothing reachable from it may escape — byte slices are
// copied (or hashed) before put, and pointerful slices are cleared so
// the pool does not pin dead graphs.
type canonScratch struct {
	spaths  []SPathSet
	paths   []SPath // backing array of spaths
	counts  []int32 // per-node path counts while spaths is built
	arena   []byte  // every node's tie-break key, back to back
	keyOff  []int32 // key of position i is arena[keyOff[i]:keyOff[i+1]]
	descEnd []int32 // its node descriptor ends at arena[descEnd[i]]
	idx     []int32
	seen    []bool
	order   []int // canonical order, as positions into Graph.ids
	queue   []int
	targets []int
	dsts    []int
	sig     []byte // signature accumulation buffer
}

// key returns the tie-break key of a node position: its descriptor, '@'
// and its SPATH.
func (cs *canonScratch) key(pos int) []byte {
	return cs.arena[cs.keyOff[pos]:cs.keyOff[pos+1]]
}

// compareKeys orders two node positions by tie-break key, then by
// position: a strict total order, so any sorting algorithm yields the
// same canonical order.
func (cs *canonScratch) compareKeys(a, b int) int {
	if c := bytes.Compare(cs.key(a), cs.key(b)); c != 0 {
		return c
	}
	return a - b
}

// descriptor returns the node descriptor of a position, the prefix of
// its key.
func (cs *canonScratch) descriptor(pos int) []byte {
	return cs.arena[cs.keyOff[pos]:cs.descEnd[pos]]
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

func getCanonScratch() *canonScratch {
	return canonPool.Get().(*canonScratch)
}

func putCanonScratch(cs *canonScratch) {
	// Drop references into the graph we just encoded; keep capacities.
	clear(cs.spaths)
	clear(cs.paths)
	cs.spaths = cs.spaths[:0]
	cs.paths = cs.paths[:0]
	cs.counts = cs.counts[:0]
	cs.arena = cs.arena[:0]
	cs.keyOff = cs.keyOff[:0]
	cs.descEnd = cs.descEnd[:0]
	cs.idx = cs.idx[:0]
	cs.seen = cs.seen[:0]
	cs.order = cs.order[:0]
	cs.queue = cs.queue[:0]
	cs.targets = cs.targets[:0]
	cs.dsts = cs.dsts[:0]
	cs.sig = cs.sig[:0]
	canonPool.Put(cs)
}

// workScratch is the reusable working state of the mutation kernels
// (PRUNE, garbage collection, COMPRESS, JOIN). Same pool discipline as
// canonScratch: single-goroutine use between get/put, nothing escapes.
type workScratch struct {
	marks   []bool
	stack   []int
	nodeIDs []NodeID
	edges   []edge

	// COMPRESS: component roots, the union-find of compatible pairs,
	// the bucket order and the lazily built SPATH sets.
	comp    []int32
	parent  []int32
	buckets []bucketEntry
	spaths  []SPathSet
	paths   []SPath
	counts  []int32

	// COMPRESS's summarization: one group's member nodes, and the
	// summary nodes.
	nodes     []*Node
	summaries []*Node

	// JOIN: the matching and each operand's node ID -> out ID table
	// (map1 is COMPRESS's member ID -> summary ID table too, and JOIN's
	// counting sort reuses counts); both: the translated and merged
	// link runs.
	match              []int32
	map1, map2         []NodeID
	run1, run2, merged []edge
}

var workPool = sync.Pool{New: func() any { return new(workScratch) }}

func getWorkScratch() *workScratch {
	return workPool.Get().(*workScratch)
}

func putWorkScratch(ws *workScratch) {
	// The SPATH sets, their backing array and the node lists hold
	// pointers: clear them.
	clear(ws.spaths)
	clear(ws.paths)
	clear(ws.nodes[:cap(ws.nodes)])
	clear(ws.summaries[:cap(ws.summaries)])
	ws.nodes, ws.summaries = ws.nodes[:0], ws.summaries[:0]
	ws.marks = ws.marks[:0]
	ws.stack = ws.stack[:0]
	ws.nodeIDs = ws.nodeIDs[:0]
	ws.edges = ws.edges[:0]
	ws.comp = ws.comp[:0]
	ws.parent = ws.parent[:0]
	ws.buckets = ws.buckets[:0]
	ws.spaths = ws.spaths[:0]
	ws.paths = ws.paths[:0]
	ws.counts = ws.counts[:0]
	ws.match = ws.match[:0]
	ws.map1, ws.map2 = ws.map1[:0], ws.map2[:0]
	ws.run1, ws.run2, ws.merged = ws.run1[:0], ws.run2[:0], ws.merged[:0]
	workPool.Put(ws)
}

// spathSets returns the SPATH of every node of g, parallel to g.ids,
// built in the scratch's buffers: valid until the scratch is put back.
func (ws *workScratch) spathSets(g *Graph) []SPathSet {
	ws.spaths = grow(ws.spaths, len(g.ids))
	ws.paths, ws.counts = g.spathsByPos(ws.spaths, ws.paths, ws.counts)
	return ws.spaths
}

// grow returns s resized to n, reusing capacity. The contents are
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growBool is grow with every entry false.
func growBool(s []bool, n int) []bool {
	s = grow(s, n)
	clear(s)
	return s
}
