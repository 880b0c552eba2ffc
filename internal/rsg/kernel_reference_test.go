package rsg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Test-only references for the COMPRESS and JOIN kernels: the
// string-keyed summarization buckets and the edge-by-edge NL build the
// kernels used before they moved to integer buckets and merged runs.
// TestCompressMatchesReference and TestJoinMatchesReference hold the
// production kernels to these copies on everything a caller can see:
// node IDs and nextID feed PRUNE rule 2 and the codec, so an equal
// digest alone is not enough.

// CompressMatchesReference compresses two clones of g at lvl, one with
// Compress and one with the reference, and describes the first
// difference between them; "" when they agree.
func CompressMatchesReference(lvl Level, g *Graph) string {
	want, got := g.Clone(), g.Clone()
	wm, gm := refCompress(want, lvl), Compress(got, lvl)
	if wm != gm {
		return fmt.Sprintf("merges: reference %d, Compress %d", wm, gm)
	}
	return graphDiff(want, got)
}

// JoinMatchesReference joins g1 and g2 at lvl with Join and with the
// reference, and describes the first difference; "" when they agree.
// It returns Join's result, uncompressed.
func JoinMatchesReference(lvl Level, g1, g2 *Graph) (*Graph, string) {
	want, got := refJoin(lvl, g1, g2), Join(lvl, g1, g2)
	return got, graphDiff(want, got)
}

// KernelGraphs exports kernelGraphs to the external kernel tests.
func KernelGraphs(seed int64) []*Graph { return kernelGraphs(seed) }

// graphDiff describes the first difference between two graphs in node
// IDs, nextID, node properties, PL, outE or inE; "" when there is none.
func graphDiff(want, got *Graph) string {
	if !slices.Equal(want.ids, got.ids) {
		return fmt.Sprintf("ids: want %v, got %v", want.ids, got.ids)
	}
	if want.nextID != got.nextID {
		return fmt.Sprintf("nextID: want %d, got %d", want.nextID, got.nextID)
	}
	for i, w := range want.nodes {
		if d := nodeDiff(w, got.nodes[i]); d != "" {
			return fmt.Sprintf("node n%d: %s", want.ids[i], d)
		}
	}
	if !slices.Equal(want.pl, got.pl) {
		return fmt.Sprintf("PL: want %v, got %v", want.pl, got.pl)
	}
	if !slices.Equal(want.outE, got.outE) {
		return fmt.Sprintf("outE: want %v, got %v", want.outE, got.outE)
	}
	if !slices.Equal(want.inE, got.inE) {
		return fmt.Sprintf("inE: want %v, got %v", want.inE, got.inE)
	}
	return ""
}

func nodeDiff(w, g *Node) string {
	switch {
	case w.ID != g.ID:
		return fmt.Sprintf("ID %d vs %d", w.ID, g.ID)
	case w.Type != g.Type, w.Singleton != g.Singleton, w.Shared != g.Shared,
		!w.ShSel.Equal(g.ShSel),
		!w.SelIn.Equal(g.SelIn), !w.SelOut.Equal(g.SelOut),
		!w.PosSelIn.Equal(g.PosSelIn), !w.PosSelOut.Equal(g.PosSelOut),
		!slices.Equal(w.Cycle.Sorted(), g.Cycle.Sorted()),
		!w.Touch.Equal(g.Touch):
		return fmt.Sprintf("want %s, got %s", w, g)
	}
	return ""
}

// refCompress is the reference COMPRESS: compressOnce rounds until one
// merges nothing.
func refCompress(g *Graph, lvl Level) int {
	total := 0
	for {
		merges := refCompressOnce(g, lvl)
		if merges == 0 {
			return total
		}
		total += merges
	}
}

// refCompressOnce buckets nodes by a string key of their properties and
// STRUCTURE, then unions chain-compatible pairs within each bucket.
func refCompressOnce(g *Graph, lvl Level) int {
	n := len(g.ids)
	if n < 2 {
		return 0
	}
	spaths := g.spathSets()
	structure := refStructureOf(g)

	buckets := make(map[string][]int)
	var order []string
	for pos, id := range g.ids {
		key := refPropertyKey(g.nodes[pos]) + "|" + structure[id]
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], pos)
	}

	parent := make([]int32, n)
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

	merges := 0
	for _, key := range order {
		group := buckets[key]
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if find(int32(a)) == find(int32(b)) {
					continue
				}
				na, nb := g.nodes[a], g.nodes[b]
				if refCNodesRSG(lvl, na, nb, spaths[a], spaths[b], structure[na.ID], structure[nb.ID]) {
					ra, rb := find(int32(a)), find(int32(b))
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

	groupsByRoot := make(map[int32][]*Node)
	var roots []int32
	for pos := range g.ids {
		r := find(int32(pos))
		if _, ok := groupsByRoot[r]; !ok {
			roots = append(roots, r)
		}
		groupsByRoot[r] = append(groupsByRoot[r], g.nodes[pos])
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		members := groupsByRoot[r]
		if len(members) < 2 {
			continue
		}
		refSummarizeGroup(g, members)
	}
	return merges
}

// refSummarizeGroup replaces the members by one summary node, re-adding
// every touching link with AddLinkSym and removing each member with
// RemoveNode.
func refSummarizeGroup(g *Graph, members []*Node) {
	merged := MergeCompNodes(g, members, true)
	memberIDs := make([]NodeID, len(members))
	for i, m := range members {
		memberIDs[i] = m.ID
	}
	sort.Slice(memberIDs, func(i, j int) bool { return memberIDs[i] < memberIDs[j] })
	inGroup := func(id NodeID) bool {
		i := sort.Search(len(memberIDs), func(i int) bool { return memberIDs[i] >= id })
		return i < len(memberIDs) && memberIDs[i] == id
	}

	var touching []edge
	for _, e := range g.outE {
		if inGroup(e.a) || inGroup(e.b) {
			touching = append(touching, e)
		}
	}
	var pvars []string
	for _, m := range members {
		pvars = append(pvars, g.PvarsOf(m.ID)...)
	}

	node := g.AddNode(merged)
	mapID := func(id NodeID) NodeID {
		if inGroup(id) {
			return node.ID
		}
		return id
	}
	for _, e := range touching {
		g.AddLinkSym(mapID(e.a), e.sel, mapID(e.b))
	}
	for _, p := range pvars {
		g.SetPvar(p, node.ID)
	}
	for _, id := range memberIDs {
		g.RemoveNode(id)
	}
}

// refStructureOf names each node's weakly-connected component by the
// sorted pvars anchored in it, or "#<root id>" when it has none.
func refStructureOf(g *Graph) map[NodeID]string {
	n := len(g.ids)
	parent := make([]int32, n)
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
	for _, e := range g.outE {
		ra, rb := find(int32(g.posOf(e.a))), find(int32(g.posOf(e.b)))
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	pvarsByRoot := make(map[int32][]string)
	for _, e := range g.pl {
		r := find(int32(g.posOf(e.id)))
		pvarsByRoot[r] = append(pvarsByRoot[r], pvarTab.name(e.sym))
	}
	out := make(map[NodeID]string, n)
	for i, id := range g.ids {
		r := find(int32(i))
		ps := pvarsByRoot[r]
		sort.Strings(ps)
		if len(ps) == 0 {
			out[id] = "#" + refItoa(int(g.ids[r]))
			continue
		}
		out[id] = strings.Join(ps, ",")
	}
	return out
}

func refItoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// refPropertyKey encodes TYPE, SHARED, SHSEL, SELIN, SELOUT and TOUCH
// as one string.
func refPropertyKey(n *Node) string {
	buf := make([]byte, 0, 64)
	buf = append(buf, n.Type...)
	buf = append(buf, '|')
	if n.Shared {
		buf = append(buf, 'S')
	} else {
		buf = append(buf, 's')
	}
	buf = append(buf, '|')
	buf = n.ShSel.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelIn.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelOut.appendTo(buf)
	buf = append(buf, '|')
	buf = n.Touch.appendTo(buf)
	return string(buf)
}

// refCNodesRSG is C_NODES_RSG with STRUCTURE given as strings.
func refCNodesRSG(lvl Level, n1, n2 *Node, sp1, sp2 SPathSet, st1, st2 string) bool {
	if st1 != st2 {
		return false
	}
	return CNodes(lvl, n1, n2, sp1, sp2)
}

// refJoin is the reference JOIN: the same matching as Join, with NL
// built by inserting every translated link of both operands through
// AddLinkSym.
func refJoin(lvl Level, g1, g2 *Graph) *Graph {
	sp1, sp2 := g1.spathSets(), g2.spathSets()
	n1len, n2len := len(g1.ids), len(g2.ids)

	match := make([]int, n1len)
	for i := range match {
		match[i] = -1
	}
	taken := make([]bool, n2len)

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

	out := NewGraph()
	map1 := make([]NodeID, n1len)
	map2 := make([]NodeID, n2len)
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
