package absem

import "repro/internal/rsg"

// unlink performs the strong update "a->sel = NULL" on the graph, where
// a is a singleton (pvar-referenced) node and b its materialized single
// sel target. Unlike the speculative removals of DIVIDE, this models a
// real heap mutation, so the property state of both endpoints is
// updated to the new truth before any pruning runs.
func unlink(g *rsg.Graph, a rsg.NodeID, sel string, b rsg.NodeID) {
	unlinkSym(g, a, rsg.SelSym(sel), b)
}

func unlinkSym(g *rsg.Graph, a rsg.NodeID, sel rsg.Sym, b rsg.NodeID) {
	selName := rsg.SelName(sel)
	g.RemoveLinkSym(a, sel, b)
	na, nb := g.Node(a), g.Node(b)

	// Source: the reference definitely no longer exists.
	na.ClearOutSym(sel)
	// Cycle pairs of a that started with sel lost their only witness.
	for _, pair := range na.Cycle.Sorted() {
		if pair.Out == selName {
			na.Cycle.Remove(pair)
		}
	}

	if nb == nil {
		return
	}
	// Destination: update the incoming state for sel.
	srcs := g.SourcesSym(b, sel)
	if len(srcs) == 0 {
		nb.ClearInSym(sel)
		nb.ShSel.RemoveSym(sel)
	} else {
		definite := false
		for _, s := range srcs {
			if g.DefiniteLinkSym(s, sel, b) {
				definite = true
				break
			}
		}
		if !definite {
			nb.SelIn.RemoveSym(sel)
			nb.MarkPossibleInSym(sel)
		}
		if nb.Singleton {
			// Re-count sharing through sel: only provable when every
			// remaining source is a singleton.
			allSingleton := true
			for _, s := range srcs {
				if sn := g.Node(s); sn == nil || !sn.Singleton {
					allSingleton = false
					break
				}
			}
			if allSingleton && len(srcs) < 2 {
				nb.ShSel.RemoveSym(sel)
			}
		}
	}
	// Cycle pairs of b returning through sel whose witness was a.
	for _, pair := range nb.Cycle.Sorted() {
		if pair.In == selName && g.HasLink(b, pair.Out, a) {
			nb.Cycle.Remove(pair)
		}
	}
	refreshShared(g, nb)
}

// link performs the strong update "a->sel = b" on the graph. The caller
// has already ensured a has no sel link (unlink ran first) and both a
// and b are singleton nodes (a is pvar-referenced; b is a pvar target).
func link(g *rsg.Graph, a rsg.NodeID, sel string, b rsg.NodeID) {
	linkSym(g, a, rsg.SelSym(sel), b)
}

func linkSym(g *rsg.Graph, a rsg.NodeID, sel rsg.Sym, b rsg.NodeID) {
	selName := rsg.SelName(sel)
	na, nb := g.Node(a), g.Node(b)

	hadSelIn := len(g.SourcesSym(b, sel)) > 0
	hadHeapIn := g.HeapInDegree(b) > 0

	g.AddLinkSym(a, sel, b)
	na.MarkDefiniteOutSym(sel)

	// Cycle pairs of a starting with sel were vacuously true while a had
	// no sel reference (MERGE_NODES keeps such pairs across JOIN); the
	// new reference ends the vacuity, so they only survive if b closes
	// them — which the re-derivation below re-adds.
	for _, pair := range na.Cycle.Sorted() {
		if pair.Out == selName {
			na.Cycle.Remove(pair)
		}
	}

	if nb.Singleton {
		nb.MarkDefiniteInSym(sel)
		if hadSelIn {
			nb.ShSel.AddSym(sel)
			nb.Shared = true
		}
		if hadHeapIn {
			nb.Shared = true
		}
	} else {
		// Conservative path (not reached by the standard semantics,
		// which always links to pvar targets, i.e. singletons).
		nb.MarkPossibleInSym(sel)
		if hadSelIn {
			nb.ShSel.AddSym(sel)
			nb.Shared = true
		}
	}

	// New definite cycles through the link.
	for _, selIn := range g.OutSelectors(b) {
		if g.DefiniteLink(b, selIn, a) {
			na.Cycle.Add(rsg.CyclePair{Out: selName, In: selIn})
			nb.Cycle.Add(rsg.CyclePair{Out: selIn, In: selName})
		}
	}
	if a == b {
		// Self reference: a->sel == a closes <sel, sel'> for every
		// definite sel' self link, including sel itself.
		if g.DefiniteLinkSym(a, sel, a) {
			na.Cycle.Add(rsg.CyclePair{Out: selName, In: selName})
		}
	}
}

// refreshShared lowers SHARED when the graph proves at most one heap
// reference remains into a singleton node (all sources singleton).
func refreshShared(g *rsg.Graph, n *rsg.Node) {
	if !n.Singleton || !n.Shared {
		return
	}
	if !n.ShSel.Empty() {
		return
	}
	total := 0
	for _, l := range g.InLinks(n.ID) {
		sn := g.Node(l.Src)
		if sn == nil || !sn.Singleton {
			return // unknown multiplicity: keep the conservative flag
		}
		total++
	}
	if total < 2 {
		n.Shared = false
	}
}
