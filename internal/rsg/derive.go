package rsg

import "sort"

// SPathOf computes the SPATH derived property of a node: the set of
// access paths of length <= 1 from pvars to it (Sect. 3). The
// zero-length path <p, ""> is present when p references the node
// directly; <p, sel> is present when p references a node m and
// <m, sel, n> is in NL.
func (g *Graph) SPathOf(id NodeID) SPathSet {
	var s SPathSet
	for _, e := range g.pl {
		if e.id == id {
			s.Add(SPath{Pvar: pvarTab.name(e.sym)})
		}
	}
	for _, e := range g.pl {
		for _, ed := range g.outRun(e.id) {
			if ed.b == id {
				s.Add(SPath{Pvar: pvarTab.name(e.sym), Sel: selTab.name(ed.sel)})
			}
		}
	}
	return s
}

// spathsByPos fills sets (parallel to g.ids) with the SPATH of every
// node; the allocation-sensitive core shared by spathSets and the
// canonical encoder. The sets are capped windows of one backing array,
// grown from paths; counts is scratch for the per-node path counts.
// Both are returned so pooled callers keep their capacity. x is g's
// position index.
//
// Appending in (pl, out-run) order yields every set sorted by (Pvar,
// Sel) without duplicates, so no set needs Add: pl is in pvar-name
// order, a pvar's zero-length path is appended before its one-length
// ones, an out-run is in selector-name order, and NL holds each
// <src, sel, dst> once.
func (g *Graph) spathsByPos(sets []SPathSet, paths []SPath, counts []int32, x *posIndex) ([]SPath, []int32) {
	clear(sets)
	if len(g.pl) == 0 {
		return paths, counts
	}
	counts = grow(counts, len(g.ids))
	clear(counts)
	total := 0
	for _, e := range g.pl {
		p := x.pos[e.id]
		counts[p]++
		run := x.outRun(g, int(p))
		for _, ed := range run {
			counts[x.pos[ed.b]]++
		}
		total += 1 + len(run)
	}
	if cap(paths) < total {
		paths = make([]SPath, total)
	}
	paths = paths[:total]
	off := 0
	for i, c := range counts {
		if c > 0 {
			sets[i].paths = paths[off : off : off+int(c)]
			off += int(c)
		}
	}
	psnap := pvarTab.load()
	var ssnap *symSnap
	for _, e := range g.pl {
		pname := psnap.names[e.sym-1]
		p := x.pos[e.id]
		sets[p].paths = append(sets[p].paths, SPath{Pvar: pname})
		run := x.outRun(g, int(p))
		if len(run) > 0 && ssnap == nil {
			ssnap = selTab.load()
		}
		for _, ed := range run {
			q := x.pos[ed.b]
			sets[q].paths = append(sets[q].paths, SPath{Pvar: pname, Sel: ssnap.names[ed.sel-1]})
		}
	}
	return paths, counts
}

// spathSets returns the SPATH of every node, parallel to g.ids. A frozen
// graph returns the sets computed once at freeze time; callers must not
// modify them.
func (g *Graph) spathSets() []SPathSet {
	if g.frozen {
		return g.cSPaths
	}
	sets := make([]SPathSet, len(g.ids))
	ws := getWorkScratch()
	ws.index.build(g)
	_, ws.counts = g.spathsByPos(sets, nil, ws.counts, &ws.index)
	putWorkScratch(ws)
	return sets
}

// components computes the STRUCTURE derived property (Sect. 3):
// "Structure avoids the summarization of nodes representing
// non-connected components". It returns, for each position, the
// smallest position of the node's weakly-connected component, reusing
// comp's capacity. Equal STRUCTURE is equal component (DESIGN.md §10).
func (g *Graph) components(comp []int32) []int32 {
	comp = grow(comp, len(g.ids))
	for i := range comp {
		comp[i] = int32(i)
	}
	find := func(x int32) int32 {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	// Union over NL; the smaller root wins, so a root is its component's
	// smallest position. outE is sorted by source, as ids is, so the
	// source position only ever moves forward.
	src := 0
	for _, e := range g.outE {
		for g.ids[src] != e.a {
			src++
		}
		ra, rb := find(int32(src)), find(int32(g.posOf(e.b)))
		if ra < rb {
			comp[rb] = ra
		} else if rb < ra {
			comp[ra] = rb
		}
	}
	for i := range comp {
		comp[i] = find(int32(i))
	}
	return comp
}

// Reachable returns the set of nodes reachable from any pvar by
// following NL links forward.
func (g *Graph) Reachable() map[NodeID]struct{} {
	seen := make(map[NodeID]struct{}, len(g.ids))
	var stack []NodeID
	for _, e := range g.pl {
		if _, ok := seen[e.id]; !ok {
			seen[e.id] = struct{}{}
			stack = append(stack, e.id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range g.outRun(id) {
			if _, ok := seen[ed.b]; !ok {
				seen[ed.b] = struct{}{}
				stack = append(stack, ed.b)
			}
		}
	}
	return seen
}

// reachableByPos marks reach (parallel to g.ids, pre-zeroed) for every
// node reachable from a pvar, using stack as DFS scratch; the grown
// stack is returned so pooled callers keep its capacity.
func (g *Graph) reachableByPos(reach []bool, stack []int) []int {
	stack = stack[:0]
	for _, e := range g.pl {
		p := g.posOf(e.id)
		if !reach[p] {
			reach[p] = true
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		pos := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ed := range g.outRun(g.ids[pos]) {
			p := g.posOf(ed.b)
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	return stack
}

// CollectGarbage removes every node not reachable from a pvar and
// returns how many nodes were removed. Memory that no pvar can reach
// can never be navigated by the program again, so dropping it keeps the
// graph a valid approximation of the live structure (this is how node
// n2 disappears in the paper's Fig. 1(c) walk-through).
//
// A garbage location may still reference surviving locations, so before
// a garbage node is dropped, the definite SELIN entries of its
// surviving link targets are demoted to possible when the dropped link
// was their witness: the incoming reference still exists concretely,
// the graph just stops modelling its origin.
func (g *Graph) CollectGarbage() int {
	n := len(g.ids)
	if n == 0 {
		return 0
	}
	ws := getWorkScratch()
	ws.marks = growBool(ws.marks, n)
	ws.stack = g.reachableByPos(ws.marks, ws.stack)
	// Snapshot the garbage IDs: positions shift as nodes are removed.
	ws.nodeIDs = ws.nodeIDs[:0]
	for pos, ok := range ws.marks {
		if !ok {
			ws.nodeIDs = append(ws.nodeIDs, g.ids[pos])
		}
	}
	// Survivor check by ID against the pre-removal snapshot: garbage
	// IDs are in ws.nodeIDs (sorted, since positions are).
	garbage := ws.nodeIDs
	isGarbage := func(id NodeID) bool {
		i := sort.Search(len(garbage), func(i int) bool { return garbage[i] >= id })
		return i < len(garbage) && garbage[i] == id
	}
	for _, id := range garbage {
		for _, ed := range g.outRun(id) {
			if ed.b == id || isGarbage(ed.b) {
				continue
			}
			dst := g.Node(ed.b)
			if dst != nil && dst.SelIn.HasSym(ed.sel) {
				dst.SelIn.RemoveSym(ed.sel)
				dst.PosSelIn.AddSym(ed.sel)
			}
		}
		g.RemoveNode(id)
	}
	removed := len(garbage)
	putWorkScratch(ws)
	return removed
}

// DefiniteLink reports whether <src, sel, dst> holds in every concrete
// configuration the graph covers in which the source's location exists:
// the source is a singleton whose sel reference definitely exists (sel
// in SELOUT) and dst is its only possible target. After JOIN the source
// may be empty in some covered configurations; InhabitedNodes names the
// sources that exist in all of them.
func (g *Graph) DefiniteLink(src NodeID, sel string, dst NodeID) bool {
	return g.definiteLinkSym(src, selTab.lookup(sel), dst)
}

// DefiniteLinkSym is DefiniteLink addressed by interned selector.
func (g *Graph) DefiniteLinkSym(src NodeID, sel Sym, dst NodeID) bool {
	return g.definiteLinkSym(src, sel, dst)
}

func (g *Graph) definiteLinkSym(src NodeID, sel Sym, dst NodeID) bool {
	s := g.Node(src)
	if s == nil || !s.Singleton || !s.SelOut.HasSym(sel) {
		return false
	}
	t, ok := g.soleTarget(src, sel)
	return ok && t == dst
}

// RefreshSingleton recomputes the share and reference-pattern state of a
// singleton node from the graph after links around it changed. For a
// singleton the graph is the ground truth:
//
//   - sel in SELIN iff some incoming sel link is definite; otherwise
//     sel in PosSELIN iff any incoming sel link remains.
//   - SHSEL(n, sel) can be reset to false when every remaining incoming
//     sel link comes from a singleton source and at most one remains.
//     Links from summary sources have unknown multiplicity, so they can
//     sustain sharing but never prove its absence: in that case the
//     previous value is kept.
//   - SHARED aggregates the same reasoning across all selectors.
//
// Outgoing definite sets are left to the abstract semantics, which
// knows whether a store created or destroyed the reference; this
// function only demotes definite-out entries that no longer have any
// witnessing link.
func (g *Graph) RefreshSingleton(id NodeID) {
	n := g.Node(id)
	if n == nil || !n.Singleton {
		return
	}
	// Incoming reference pattern.
	var allSels SelSet
	for _, e := range g.inRun(id) {
		allSels.AddSym(e.sel)
	}
	allSels = allSels.Union(n.SelIn).Union(n.PosSelIn)
	allSels.EachSym(func(sel Sym) {
		definite := false
		any := false
		for _, e := range g.inRun(id) {
			if e.sel != sel {
				continue
			}
			any = true
			if g.definiteLinkSym(e.b, sel, id) {
				definite = true
				break
			}
		}
		switch {
		case !any:
			n.ClearInSym(sel)
		case definite:
			n.MarkDefiniteInSym(sel)
		default:
			n.SelIn.RemoveSym(sel)
			n.MarkPossibleInSym(sel)
		}
	})
	// Share information. Refresh only ever *lowers* the share flags:
	// sharing is created exclusively by the store semantics (absem's
	// link), where the update is exact. Raising here on link counts
	// would confuse may-links (e.g. the duplicated candidates left by
	// materialization) with simultaneous references and poison whole
	// fixed points with spurious SHARED attributes.
	totalLinks := 0
	anySummarySource := false
	run := g.inRun(id)
	for i := 0; i < len(run); i++ {
		// Count and classify the sources of one selector. The run is
		// (src, sel-rank) ordered, so same-sel entries are not
		// contiguous; gather per selector explicitly.
		sel := run[i].sel
		seenBefore := false
		for j := 0; j < i; j++ {
			if run[j].sel == sel {
				seenBefore = true
				break
			}
		}
		if seenBefore {
			continue
		}
		srcs := 0
		allSingleton := true
		for j := i; j < len(run); j++ {
			if run[j].sel != sel {
				continue
			}
			srcs++
			if sn := g.Node(run[j].b); sn == nil || !sn.Singleton {
				allSingleton = false
				anySummarySource = true
			}
		}
		if allSingleton && srcs < 2 {
			n.ShSel.RemoveSym(sel)
		}
		totalLinks += srcs
	}
	// Drop SHSEL entries for selectors with no incoming links at all.
	n.ShSel.EachSym(func(sel Sym) {
		if g.countSources(id, sel) == 0 {
			n.ShSel.RemoveSym(sel)
		}
	})
	if !anySummarySource && totalLinks < 2 && n.ShSel.Empty() {
		n.Shared = false
	}
	// Demote definite-out entries with no witnessing link.
	n.SelOut.EachSym(func(sel Sym) {
		if !g.hasTarget(id, sel) {
			n.ClearOutSym(sel)
		}
	})
	n.PosSelOut.EachSym(func(sel Sym) {
		if !g.hasTarget(id, sel) {
			n.PosSelOut.RemoveSym(sel)
		}
	})
}
