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

	match := make([]int, n1len) // g1 pos -> g2 pos, -1 unmatched
	for i := range match {
		match[i] = -1
	}
	taken := make([]bool, n2len) // matched g2 positions

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
		match[p1] = p2
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
				match[p1] = p2
				taken[p2] = true
				break
			}
		}
	}

	// Presized for every node and link of both operands, so AddNode and
	// AddLinkSym never grow a slice.
	nl := len(g1.outE) + len(g2.outE)
	out := &Graph{
		ids:   make([]NodeID, 0, n1len+n2len),
		nodes: make([]*Node, 0, n1len+n2len),
		outE:  make([]edge, 0, nl),
		inE:   make([]edge, 0, nl),
	}
	map1 := make([]NodeID, n1len) // g1 pos -> out ID
	map2 := make([]NodeID, n2len) // g2 pos -> out ID

	for p1 := 0; p1 < n1len; p1++ {
		node1 := g1.nodes[p1]
		if p2 := match[p1]; p2 >= 0 {
			merged := MergeNodes(g1, node1, g2, g2.nodes[p2], false)
			nn := out.AddNode(merged)
			map1[p1] = nn.ID
			map2[p2] = nn.ID
		} else {
			nn := out.AddNode(node1.Clone())
			map1[p1] = nn.ID
		}
	}
	for p2 := 0; p2 < n2len; p2++ {
		if taken[p2] {
			continue
		}
		nn := out.AddNode(g2.nodes[p2].Clone())
		map2[p2] = nn.ID
	}

	for _, e := range g1.pl {
		out.SetPvarSym(e.sym, map1[g1.posOf(e.id)])
	}
	for _, e := range g2.pl {
		out.SetPvarSym(e.sym, map2[g2.posOf(e.id)])
	}
	for _, e := range g1.outE {
		out.AddLinkSym(map1[g1.posOf(e.a)], e.sel, map1[g1.posOf(e.b)])
	}
	for _, e := range g2.outE {
		out.AddLinkSym(map2[g2.posOf(e.a)], e.sel, map2[g2.posOf(e.b)])
	}
	return out
}
