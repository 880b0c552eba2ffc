package rsg

// Prune applies the paper's PRUNE operation (Sect. 4.2) in place: an
// iterative removal of the nodes and links that contradict the graph's
// own properties, typically after DIVIDE or materialization left stale
// elements behind. It returns false when the graph turns out to be
// infeasible — a node directly referenced by a pvar violates its
// properties, so no concrete configuration matches the graph and the
// caller must discard it. It returns true only after a round in which
// no rule changed anything, so an accepted graph has no unreachable
// node left to collect.
//
// Four rules run to a fixed point:
//
//  1. NL_PRUNE: a link <n1, sel_i, n2> is removed when n1 has a cycle
//     link <sel_i, sel_j> but <n2, sel_j, n1> is not in NL — the
//     candidate target provably does not close the definite cycle.
//  2. Share pruning: when a singleton node b has SHSEL(b, sel) = false
//     and one incoming sel link is definite, every other incoming sel
//     link is removed ("because node n3 is not shared by selector nxt
//     and we are sure that <n1,nxt,n3> exists ..."). Likewise, when
//     SHARED(b) = false, a definite incoming link evicts all other
//     incoming links regardless of selector.
//  3. N_PRUNE: a node is removed when a definite reference-pattern
//     entry (SELIN/SELOUT minus the possible sets) has no witnessing
//     link left.
//  4. Unreachable nodes are garbage collected.
func Prune(g *Graph) bool {
	ws := getWorkScratch()
	defer putWorkScratch(ws)
	anchored := ws.marks
	defer func() { ws.marks = anchored }()
	for {
		changed := false

		// Rule 1: NL_PRUNE. Iterate a snapshot of the links; removal
		// mutates the live slices.
		ws.edges = append(ws.edges[:0], g.outE...)
		for _, e := range ws.edges {
			n1 := g.Node(e.a)
			if n1 == nil || n1.Cycle.Empty() {
				continue
			}
			if !g.HasLinkSym(e.a, e.sel, e.b) {
				continue // removed by an earlier iteration this round
			}
			selName := selTab.name(e.sel)
			for _, pair := range n1.Cycle.Sorted() {
				if pair.Out != selName {
					continue
				}
				if !g.HasLinkSym(e.b, selTab.lookup(pair.In), e.a) {
					g.RemoveLinkSym(e.a, e.sel, e.b)
					changed = true
					break
				}
			}
		}

		// Rule 2: share pruning. Only links are removed here, so the
		// node slices are stable. The rule may only trust a definite
		// link whose source node is anchored: guaranteed to represent a
		// location in *every* configuration the graph covers. After
		// JOIN, nodes copied unmatched from one operand exist only in
		// that operand's configurations (embeddings are not surjective),
		// so a definite link out of such a node proves nothing about the
		// other configurations and must not evict their links.
		anchored = growBool(anchored[:0], len(g.ids))
		g.anchoredByPos(anchored)
		for pos := 0; pos < len(g.ids); pos++ {
			id := g.ids[pos]
			b := g.nodes[pos]
			if !b.Singleton {
				continue
			}
			if g.shareProneSelPrune(id, b, ws, anchored) {
				changed = true
			}
			if !b.Shared {
				// At most one heap reference in total: a definite link
				// evicts every other incoming link.
				ws.edges = append(ws.edges[:0], g.inRun(id)...)
				if len(ws.edges) >= 2 {
					keep := -1
					for i, e := range ws.edges {
						if anchored[g.posOf(e.b)] && g.definiteLinkSym(e.b, e.sel, id) {
							keep = i
							break
						}
					}
					if keep >= 0 {
						for i, e := range ws.edges {
							if i != keep {
								g.RemoveLinkSym(e.b, e.sel, id)
								changed = true
							}
						}
					}
				}
			}
		}

		// Rule 3: N_PRUNE. Snapshot the IDs; nodes are removed inside.
		ws.nodeIDs = append(ws.nodeIDs[:0], g.ids...)
		for _, id := range ws.nodeIDs {
			n := g.Node(id)
			if n == nil {
				continue
			}
			if !nPrune(g, n) {
				continue
			}
			if g.pvarReferenced(id) {
				return false // infeasible branch
			}
			g.RemoveNode(id)
			changed = true
		}

		// Rule 4: garbage collection.
		if g.CollectGarbage() > 0 {
			changed = true
		}

		if !changed {
			return true
		}
	}
}

// anchoredByPos marks marks[pos] (parallel to g.ids, pre-zeroed) for
// every node guaranteed to represent at least one location in every
// concrete configuration the graph covers. Pvar-referenced nodes are
// anchored (PL agreement forces the binding concretely); from there, a
// definite out-reference of an anchored node with a single candidate
// target proves the target is materialized too, so anchoring propagates
// until a fixed point.
func (g *Graph) anchoredByPos(marks []bool) {
	for _, e := range g.pl {
		marks[g.posOf(e.id)] = true
	}
	for {
		changed := false
		for pos, ok := range marks {
			if !ok {
				continue
			}
			n := g.nodes[pos]
			n.SelOut.EachSym(func(sel Sym) {
				t, sole := g.soleTarget(n.ID, sel)
				if !sole {
					return
				}
				if tp := g.posOf(t); tp >= 0 && !marks[tp] {
					marks[tp] = true
					changed = true
				}
			})
		}
		if !changed {
			return
		}
	}
}

// shareProneSelPrune applies rule 2's per-selector eviction to one
// singleton node; reports whether a link was removed. A definite link
// counts as an eviction witness only when its source is anchored (see
// anchoredByPos).
func (g *Graph) shareProneSelPrune(id NodeID, b *Node, ws *workScratch, anchored []bool) bool {
	changed := false
	// Distinct incoming selectors; the in run is (src, sel-rank)
	// ordered, so dedup explicitly. Snapshot the run: we remove links.
	ws.edges = append(ws.edges[:0], g.inRun(id)...)
	run := ws.edges
	for i := 0; i < len(run); i++ {
		sel := run[i].sel
		dup := false
		for j := 0; j < i; j++ {
			if run[j].sel == sel {
				dup = true
				break
			}
		}
		if dup || b.ShSel.HasSym(sel) {
			continue
		}
		srcs := 0
		definite := NodeID(-1)
		for _, e := range run {
			if e.sel != sel {
				continue
			}
			srcs++
			if definite < 0 && anchored[g.posOf(e.b)] && g.definiteLinkSym(e.b, sel, id) {
				definite = e.b
			}
		}
		if srcs < 2 || definite < 0 {
			continue
		}
		for _, e := range run {
			if e.sel == sel && e.b != definite {
				g.RemoveLinkSym(e.b, sel, id)
				changed = true
			}
		}
	}
	return changed
}

// nPrune is the paper's N_PRUNE(n) predicate.
func nPrune(g *Graph, n *Node) bool {
	prune := false
	n.SelOut.EachSym(func(sel Sym) {
		if prune || n.PosSelOut.HasSym(sel) {
			return
		}
		if !g.hasTarget(n.ID, sel) {
			prune = true
		}
	})
	if prune {
		return true
	}
	n.SelIn.EachSym(func(sel Sym) {
		if prune || n.PosSelIn.HasSym(sel) {
			return
		}
		if g.countSources(n.ID, sel) == 0 {
			prune = true
		}
	})
	return prune
}
