package rsg

import "slices"

// MergeNodes implements the paper's MERGE_NODES(n1, n2) = n (Sect. 3.1).
// It builds the summary node that stands for all locations of n1 and n2.
// g1 and g2 supply the NL context of each node for the CYCLELINKS merge
// rule; for intra-graph summarization they are the same graph. The
// returned node has no ID; the caller installs it.
//
// Property rules, verbatim from the paper:
//
//	SELINset(n)     = SELINset(n1) ∩ SELINset(n2)
//	SELOUTset(n)    = SELOUTset(n1) ∩ SELOUTset(n2)
//	PosSELINset(n)  = (SELINset(n1) ∪ SELINset(n2) ∪ PosSELINset(n1)
//	                   ∪ PosSELINset(n2)) \ SELINset(n)
//	PosSELOUTset(n) = symmetric
//	CYCLELINKS(n)   = pairs in both, plus a pair of one node whose first
//	                  selector is not a link selector of the other node
//
// TYPE, STRUCTURE, SHARED, SHSEL and TOUCH must already agree for the
// merge to be allowed (C_NODES/C_NODES_RSG); they carry over. SHSEL and
// SHARED are taken as the disjunction anyway so that the function stays
// conservative if a caller merges under a weaker predicate.
//
// intraGraph reports whether the two nodes belong to the same RSG
// (COMPRESS): then the summary stands for several locations at once and
// loses the Singleton flag. Across graphs (JOIN) the merged node is
// still a per-configuration singleton when both inputs are.
func MergeNodes(g1 *Graph, n1 *Node, g2 *Graph, n2 *Node, intraGraph bool) *Node {
	n := mergeNodes(g1, n1, g2, n2, intraGraph)
	return &n
}

// mergeNodes is MergeNodes returning the node by value, for a caller
// that places it in a batch.
func mergeNodes(g1 *Graph, n1 *Node, g2 *Graph, n2 *Node, intraGraph bool) Node {
	n := Node{Type: n1.Type}

	n.Singleton = n1.Singleton && n2.Singleton && !intraGraph

	n.Shared = n1.Shared || n2.Shared
	n.ShSel = n1.ShSel.Union(n2.ShSel)

	n.SelIn = n1.SelIn.Intersect(n2.SelIn)
	n.SelOut = n1.SelOut.Intersect(n2.SelOut)
	n.PosSelIn = n1.SelIn.Union(n2.SelIn).
		Union(n1.PosSelIn).Union(n2.PosSelIn).
		Minus(n.SelIn)
	n.PosSelOut = n1.SelOut.Union(n2.SelOut).
		Union(n1.PosSelOut).Union(n2.PosSelOut).
		Minus(n.SelOut)

	n.Cycle = mergeCycleLinks(g1, n1, g2, n2)

	// TOUCH must be equal under C_NODES at L3; at lower levels it is
	// unused. Union keeps the merge conservative either way.
	n.Touch = n1.Touch.Union(n2.Touch)
	return n
}

// sameProperties reports whether two nodes agree on every property;
// their IDs are not compared.
func sameProperties(a, b *Node) bool {
	return a.Singleton == b.Singleton && sameSummaryProperties(a, b) &&
		a.PosSelIn.Equal(b.PosSelIn) && a.PosSelOut.Equal(b.PosSelOut) &&
		slices.Equal(a.Cycle.pairs, b.Cycle.pairs)
}

// mergeCycleLinks applies the paper's CYCLELINKS merge rule. A pair
// survives when it is present in both nodes, or when it is present in
// one node and the other node has no outgoing link through the pair's
// first selector (so the rule is vacuously true for its locations).
func mergeCycleLinks(g1 *Graph, n1 *Node, g2 *Graph, n2 *Node) CycleSet {
	var out CycleSet
	hasOut := func(g *Graph, n *Node, sel string) bool {
		if g == nil {
			return true // no context: keep only common pairs
		}
		return g.hasTarget(n.ID, selTab.lookup(sel))
	}
	for _, p := range n1.Cycle.Sorted() {
		if n2.Cycle.Has(p) || !hasOut(g2, n2, p.Out) {
			out.Add(p)
		}
	}
	for _, p := range n2.Cycle.Sorted() {
		if n1.Cycle.Has(p) || !hasOut(g1, n1, p.Out) {
			out.Add(p)
		}
	}
	return out
}

// MergeCompNodes folds a group of pairwise chain-compatible nodes of one
// graph into a single summary node, the paper's MERGE_COMP_NODES.
func MergeCompNodes(g *Graph, nodes []*Node, intraGraph bool) *Node {
	if len(nodes) == 0 {
		return nil
	}
	acc := nodes[0]
	for _, n := range nodes[1:] {
		merged := MergeNodes(g, acc, g, n, intraGraph)
		// Give the accumulator a transient identity inside g for the
		// CYCLELINKS context checks of subsequent merges: the first
		// node's links act as the representative (conservative).
		merged.ID = nodes[0].ID
		acc = merged
	}
	return acc
}
