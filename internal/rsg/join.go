package rsg

import (
	"sort"
	"strings"
)

// AliasKey returns a canonical encoding of the paper's ALIAS(rsg)
// relation: the partition of the non-NULL pvars by referenced node.
// Two graphs have the same alias relation iff their keys are equal.
// Frozen graphs serve the key from the cache built at freeze time.
func AliasKey(g *Graph) string {
	if g.frozen {
		return g.cAlias
	}
	return aliasKey(g)
}

func aliasKey(g *Graph) string {
	if len(g.pl) == 0 {
		return ""
	}
	// g.pl is name-ordered, so each group's pvars come out sorted.
	groups := make(map[NodeID][]string, len(g.pl))
	snap := pvarTab.load()
	for _, e := range g.pl {
		groups[e.id] = append(groups[e.id], snap.names[e.sym-1])
	}
	keys := make([]string, 0, len(groups))
	for _, ps := range groups {
		keys = append(keys, strings.Join(ps, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// Compatible is the paper's COMPATIBLE(rsg1, rsg2) predicate
// (Sect. 4.3): the alias relations must match and, for every pvar, the
// two directly referenced nodes must satisfy the join compatibility
// check.
func Compatible(lvl Level, g1, g2 *Graph) bool {
	if AliasKey(g1) != AliasKey(g2) {
		return false
	}
	return CompatibleSP(lvl, g1, g2)
}

// CompatibleSP is Compatible with the alias keys already known equal
// (the RSRSG reduction buckets graphs by alias key). It reads each
// graph's positional SPATH sets, which a frozen graph pinned at freeze
// time and a mutable one computes per call.
func CompatibleSP(lvl Level, g1, g2 *Graph) bool {
	sp1, sp2 := g1.spathSets(), g2.spathSets()
	for _, e := range g1.pl {
		i2 := g2.plIndex(e.sym)
		if i2 < 0 {
			return false // alias keys equal => cannot happen, defensive
		}
		p1, p2 := g1.posOf(e.id), g2.posOf(g2.pl[i2].id)
		if !CNodesJoin(lvl, g1.nodes[p1], g2.nodes[p2], sp1[p1], sp2[p2]) {
			return false
		}
	}
	return true
}

// Join implements the paper's JOIN(rsg1, rsg2) = rsg operation
// (Sect. 4.3) for two COMPATIBLE graphs. Compatible node pairs are
// merged with MERGE_NODES; unmatched nodes are copied; PL and NL are
// translated through the MAP function. The caller typically compresses
// the result.
//
// The paper's set formula merges every compatible (n_i, n_j) pair; to
// keep MAP well defined we compute a deterministic one-to-one matching:
// pvar-referenced nodes are matched by their alias group first (required
// so each pvar keeps a single target), then remaining nodes greedily in
// ID order.
func Join(lvl Level, g1, g2 *Graph) *Graph {
	sp1, sp2 := g1.spathSets(), g2.spathSets()
	n1len, n2len := len(g1.ids), len(g2.ids)
	ws := getWorkScratch()
	defer putWorkScratch(ws)

	match := grow(ws.match, n1len) // g1 pos -> g2 pos, -1 unmatched
	ws.match = match
	for i := range match {
		match[i] = -1
	}
	ws.marks = growBool(ws.marks, n2len) // matched g2 positions
	taken := ws.marks

	// Pass 1: force-match pvar targets (alias groups correspond 1:1).
	for _, e := range g1.pl {
		t2 := g2.PvarTargetSym(e.sym)
		if t2 == nil {
			continue
		}
		p1 := g1.posOf(e.id)
		if match[p1] >= 0 {
			continue
		}
		p2 := g2.posOf(t2.ID)
		match[p1] = int32(p2)
		taken[p2] = true
	}

	// Pass 2: greedy matching of the remaining nodes, in ID order.
	for p1 := 0; p1 < n1len; p1++ {
		if match[p1] >= 0 {
			continue
		}
		node1 := g1.nodes[p1]
		for p2 := 0; p2 < n2len; p2++ {
			if taken[p2] {
				continue
			}
			if CNodes(lvl, node1, g2.nodes[p2], sp1[p1], sp2[p2]) {
				match[p1] = int32(p2)
				taken[p2] = true
				break
			}
		}
	}

	// Sized for every out node, so AddNode never grows a slice, and one
	// backing array holds every node, as in Clone.
	outLen := n1len
	for _, t := range taken {
		if !t {
			outLen++
		}
	}
	out := &Graph{
		ids:   make([]NodeID, 0, outLen),
		nodes: make([]*Node, 0, outLen),
	}
	backing := make([]Node, outLen)
	// map1 and map2 take an operand's node ID to its out ID.
	map1 := grow(ws.map1, int(g1.nextID)+1)
	map2 := grow(ws.map2, int(g2.nextID)+1)
	ws.map1, ws.map2 = map1, map2

	for p1 := 0; p1 < n1len; p1++ {
		nn := &backing[p1]
		if p2 := match[p1]; p2 >= 0 {
			*nn = mergeNodes(g1, g1.nodes[p1], g2, g2.nodes[p2], false)
			map2[g2.ids[p2]] = out.AddNode(nn).ID
		} else {
			*nn = *g1.nodes[p1]
			out.AddNode(nn)
		}
		map1[g1.ids[p1]] = nn.ID
	}
	for p2 := 0; p2 < n2len; p2++ {
		if taken[p2] {
			continue
		}
		nn := &backing[len(out.ids)]
		*nn = *g2.nodes[p2]
		map2[g2.ids[p2]] = out.AddNode(nn).ID
	}

	for _, e := range g1.pl {
		out.SetPvarSym(e.sym, map1[e.id])
	}
	for _, e := range g2.pl {
		out.SetPvarSym(e.sym, map2[e.id])
	}

	// NL is the union of both operands' translated links (DESIGN.md
	// §10). g1's nodes took out IDs 1..n1 in position order, so map1 is
	// increasing and g1's translated slices are already sorted; map2 is
	// injective, so g2's hold no duplicates once sorted. Merging the two
	// sorted runs, one copy of a link both operands map to, gives the
	// slices that inserting link by link would.
	snap := selTab.load()
	ws.run1 = translateEdges(ws.run1, g1.outE, map1)
	ws.run2, ws.counts = sortTranslated(snap, ws.run2, ws.counts, g2.outE, map2, out.nextID, compareOut)
	ws.merged = mergeEdges(snap, ws.merged, ws.run1, ws.run2, compareOut)
	out.outE = append(make([]edge, 0, len(ws.merged)), ws.merged...)
	ws.run1 = translateEdges(ws.run1, g1.inE, map1)
	ws.run2, ws.counts = sortTranslated(snap, ws.run2, ws.counts, g2.inE, map2, out.nextID, compareIn)
	ws.merged = mergeEdges(snap, ws.merged, ws.run1, ws.run2, compareIn)
	out.inE = append(make([]edge, 0, len(ws.merged)), ws.merged...)
	return out
}

// translateEdges fills dst with edges, both endpoints mapped through m.
func translateEdges(dst, edges []edge, m []NodeID) []edge {
	dst = dst[:0]
	for _, e := range edges {
		dst = append(dst, edge{m[e.a], e.sel, m[e.b]})
	}
	return dst
}

// sortTranslated fills dst with edges, a sorted edge slice, translated
// through the injective map m into IDs at most maxID and sorted under
// compare. Translation keeps each run of equal first endpoint whole, so
// a stable counting sort by the translated first endpoint orders the
// runs, and an insertion sort finishes each run: runs are short, and
// within one only the translated second endpoint can be out of order.
// counts is scratch, returned to keep its capacity.
func sortTranslated(snap *symSnap, dst []edge, counts []int32, edges []edge, m []NodeID, maxID NodeID, compare func(*symSnap, edge, edge) int) ([]edge, []int32) {
	counts = grow(counts, int(maxID)+2)
	clear(counts)
	for _, e := range edges {
		counts[m[e.a]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	// counts[a] is where the run of a starts; it advances as it fills.
	dst = grow(dst, len(edges))
	for _, e := range edges {
		a := m[e.a]
		dst[counts[a]] = edge{a, e.sel, m[e.b]}
		counts[a]++
	}
	for lo := 0; lo < len(dst); {
		hi := lo + 1
		for ; hi < len(dst) && dst[hi].a == dst[lo].a; hi++ {
			for j := hi; j > lo && compare(snap, dst[j-1], dst[j]) > 0; j-- {
				dst[j-1], dst[j] = dst[j], dst[j-1]
			}
		}
		lo = hi
	}
	return dst, counts
}

// mergeEdges fills dst with the union of two runs sorted under compare,
// keeping one copy of an edge in both. Neither run may hold a duplicate
// of its own.
func mergeEdges(snap *symSnap, dst, x, y []edge, compare func(*symSnap, edge, edge) int) []edge {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch c := compare(snap, x[i], y[j]); {
		case c < 0:
			dst = append(dst, x[i])
			i++
		case c > 0:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, x[i])
			i++
			j++
		}
	}
	dst = append(dst, x[i:]...)
	return append(dst, y[j:]...)
}
