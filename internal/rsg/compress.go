package rsg

import (
	"cmp"
	"slices"
)

// Compress applies the paper's COMPRESS function (Sect. 3.1) to the
// graph in place: every maximal group of chain-compatible nodes
// (C_NODES_RSG) is summarized into one node via MERGE_COMP_NODES, and
// PL/NL are remapped through MAP_RSG. The process repeats until no two
// nodes are compatible, because a merge changes SPATHs and structure
// and can enable further merges. Returns the number of merges applied.
func Compress(g *Graph, lvl Level) int {
	total := 0
	for {
		merges := compressOnce(g, lvl)
		if merges == 0 {
			return total
		}
		total += merges
	}
}

// compressOnce performs one summarization round.
func compressOnce(g *Graph, lvl Level) int {
	n := len(g.ids)
	if n < 2 {
		return 0
	}
	ws := getWorkScratch()
	defer putWorkScratch(ws)

	// Bucket by component and by the equality-checked properties, so the
	// pairwise C_NODES_RSG tests only run within plausible groups. Equal
	// STRUCTURE is equal component (DESIGN.md §10). Sorting puts each
	// (component, property hash) bucket in one run, positions ascending.
	ws.comp = g.components(ws.comp)
	ws.buckets = ws.buckets[:0]
	for pos, nd := range g.nodes {
		ws.buckets = append(ws.buckets, bucketEntry{hash: summaryHash(nd), comp: ws.comp[pos], pos: int32(pos)})
	}
	slices.SortFunc(ws.buckets, compareBuckets)

	// Union-find for chain compatibility (the paper summarizes chains
	// n1..nk with C_NODES_RSG(n_i, n_{i+1}) for consecutive pairs). The
	// smaller root wins, so every group's root is its smallest position.
	parent := grow(ws.parent, n)
	ws.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// SPATH is built only once some pair has passed the property check:
	// the last round of every Compress usually gets by without it.
	var spaths []SPathSet
	merges := 0
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ws.buckets[hi].comp == ws.buckets[lo].comp && ws.buckets[hi].hash == ws.buckets[lo].hash {
			hi++
		}
		run := ws.buckets[lo:hi]
		lo = hi
		for i := 0; i < len(run); i++ {
			for j := i + 1; j < len(run); j++ {
				a, b := run[i].pos, run[j].pos
				if find(a) == find(b) {
					continue
				}
				na, nb := g.nodes[a], g.nodes[b]
				if !sameSummaryProperties(na, nb) {
					continue // a hash collision
				}
				if spaths == nil {
					spaths = ws.spathSets(g)
				}
				if CNodesRSG(lvl, na, nb, spaths[a], spaths[b], ws.comp[a], ws.comp[b]) {
					ra, rb := find(a), find(b)
					if ra < rb {
						parent[rb] = ra
					} else {
						parent[ra] = rb
					}
					merges++
				}
			}
		}
	}
	if merges == 0 {
		return 0
	}

	// Collect the groups, processed in ascending root position so the
	// fresh summary-node IDs are assigned deterministically: the bucket
	// entries, re-sorted by (root, position), line each group up.
	// Members are collected by ID before anything moves: ws.nodeIDs
	// holds every group of two or more back to back, ws.stack where
	// each one ends.
	for i := range ws.buckets {
		ws.buckets[i] = bucketEntry{comp: find(int32(i)), pos: int32(i)}
	}
	slices.SortFunc(ws.buckets, compareBuckets)
	ws.nodeIDs, ws.stack = ws.nodeIDs[:0], ws.stack[:0]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ws.buckets[hi].comp == ws.buckets[lo].comp {
			hi++
		}
		if hi-lo > 1 {
			for _, b := range ws.buckets[lo:hi] {
				ws.nodeIDs = append(ws.nodeIDs, g.ids[b.pos])
			}
			ws.stack = append(ws.stack, len(ws.nodeIDs))
		}
		lo = hi
	}
	summarizeGroups(g, ws)
	return merges
}

// bucketEntry places one node position in COMPRESS's bucket order:
// by component, then by property hash, then by position.
type bucketEntry struct {
	hash uint64
	comp int32
	pos  int32
}

func compareBuckets(x, y bucketEntry) int {
	if x.comp != y.comp {
		return cmp.Compare(x.comp, y.comp)
	}
	if x.hash != y.hash {
		return cmp.Compare(x.hash, y.hash)
	}
	return cmp.Compare(x.pos, y.pos)
}

// summaryHash hashes the intrinsic properties C_NODES_RSG compares:
// TYPE, SHARED, SHSEL, SELIN, SELOUT and TOUCH. TOUCH counts at every
// level, so nodes that differ only in TOUCH are never summarized, L1
// and L2 included. Equal properties hash equally; sameSummaryProperties
// confirms every candidate pair, so a collision costs one comparison.
func summaryHash(n *Node) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over TYPE
	for i := 0; i < len(n.Type); i++ {
		h = (h ^ uint64(n.Type[i])) * 1099511628211
	}
	if n.Shared {
		h = mix64(h ^ 1)
	}
	h = n.ShSel.b.hash(h)
	h = n.SelIn.b.hash(h)
	h = n.SelOut.b.hash(h)
	return n.Touch.b.hash(h)
}

// sameSummaryProperties reports whether two nodes agree on every
// property summaryHash hashes.
func sameSummaryProperties(a, b *Node) bool {
	return a.Type == b.Type && a.Shared == b.Shared &&
		a.ShSel.Equal(b.ShSel) && a.SelIn.Equal(b.SelIn) &&
		a.SelOut.Equal(b.SelOut) && a.Touch.Equal(b.Touch)
}

// summarizeGroups replaces every group of members by one summary node,
// retargeting PL and NL (the MAP_RSG of the paper). ws.nodeIDs holds
// the groups' member IDs back to back, ascending within a group, and
// ws.stack where each group ends; the summary nodes take fresh IDs in
// group order. One pass over each slice leaves the graph that
// summarizing the groups one at a time would (DESIGN.md §10).
func summarizeGroups(g *Graph, ws *workScratch) {
	g.mustMutate("Compress")
	// Every summary node is built on the unchanged graph. MERGE_NODES
	// reads the members' properties and the selectors they link
	// through, and summarizing another group changes neither.
	sumOf := grow(ws.map1, int(g.nextID)+1) // member ID -> summary ID, 0 for others
	ws.map1 = sumOf
	clear(sumOf)
	start := 0
	for k, end := range ws.stack {
		ws.nodes = ws.nodes[:0]
		for _, id := range ws.nodeIDs[start:end] {
			ws.nodes = append(ws.nodes, g.Node(id))
			sumOf[id] = g.nextID + NodeID(k) + 1
		}
		ws.summaries = append(ws.summaries, MergeCompNodes(g, ws.nodes, true))
		start = end
	}
	mapID := func(id NodeID) NodeID {
		if s := sumOf[id]; s != 0 {
			return s
		}
		return id
	}

	// NL: links between two non-members keep their place; the others
	// are retargeted, sorted, deduplicated and merged back in. A
	// retargeted link ends at a summary node, so it equals no kept one.
	snap := selTab.load()
	kept := 0
	ws.run1 = ws.run1[:0]
	for _, e := range g.outE {
		if sumOf[e.a] == 0 && sumOf[e.b] == 0 {
			g.outE[kept] = e
			kept++
		} else {
			ws.run1 = append(ws.run1, edge{mapID(e.a), e.sel, mapID(e.b)})
		}
	}
	slices.SortFunc(ws.run1, func(x, y edge) int { return compareOut(snap, x, y) })
	ws.run1 = slices.Compact(ws.run1)
	ws.merged = mergeEdges(snap, ws.merged, g.outE[:kept], ws.run1, compareOut)
	g.outE = append(g.outE[:0], ws.merged...)

	kept = 0
	for _, e := range g.inE {
		if sumOf[e.a] == 0 && sumOf[e.b] == 0 {
			g.inE[kept] = e
			kept++
		}
	}
	ws.run2 = ws.run2[:0]
	for _, e := range ws.run1 {
		ws.run2 = append(ws.run2, edge{e.b, e.sel, e.a})
	}
	slices.SortFunc(ws.run2, func(x, y edge) int { return compareIn(snap, x, y) })
	ws.merged = mergeEdges(snap, ws.merged, g.inE[:kept], ws.run2, compareIn)
	g.inE = append(g.inE[:0], ws.merged...)

	// PL keeps its pvar order; only the targets move.
	for i, e := range g.pl {
		g.pl[i].id = mapID(e.id)
	}

	// The members leave, and the summary nodes follow the survivors.
	kept = 0
	for i, id := range g.ids {
		if sumOf[id] == 0 {
			g.ids[kept], g.nodes[kept] = id, g.nodes[i]
			kept++
		}
	}
	clear(g.nodes[kept:])
	g.ids, g.nodes = g.ids[:kept], g.nodes[:kept]
	for _, n := range ws.summaries {
		g.AddNode(n)
	}
}
