package rsg

import "sort"

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
	spaths := g.spathSets()
	structure := g.StructureOf()

	// Bucket by the equality-checked properties so the pairwise
	// C_NODES_RSG tests only run within plausible groups. Buckets hold
	// node positions; the slices stay valid because nothing is removed
	// until the groups are summarized.
	buckets := make(map[string][]int)
	var order []string
	for pos, id := range g.ids {
		key := g.nodes[pos].propertyKey() + "|" + structure[id]
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], pos)
	}

	// Union-find for chain compatibility (the paper summarizes chains
	// n1..nk with C_NODES_RSG(n_i, n_{i+1}) for consecutive pairs).
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
				if CNodesRSG(lvl, na, nb, spaths[a], spaths[b], structure[na.ID], structure[nb.ID]) {
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

	// Collect the groups, processed in ascending root position so the
	// fresh summary-node IDs are assigned deterministically.
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
		summarizeGroup(g, members)
	}
	return merges
}

// summarizeGroup replaces the member nodes by one summary node,
// retargeting PL and NL (the MAP_RSG of the paper).
func summarizeGroup(g *Graph, members []*Node) {
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

	// Gather the remapped links and pvar references before mutating.
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
