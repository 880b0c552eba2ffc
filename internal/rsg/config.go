package rsg

// Level selects one of the paper's three progressive analysis levels
// (Sect. 5). Each level enables more node properties, trading analysis
// cost for precision:
//
//	L1: TOUCH disabled, C_SPATH0 (zero-length simple paths only).
//	L2: TOUCH disabled, C_SPATH1 (one-length simple paths constrain
//	    summarization too).
//	L3: every property enabled, including TOUCH.
type Level int

const (
	// L1 is the cheapest level: SPATH compatibility uses C_SPATH0 and
	// TOUCH sets are neither built nor compared.
	L1 Level = 1
	// L2 adds the C_SPATH1 compatibility constraint.
	L2 Level = 2
	// L3 additionally builds and compares TOUCH sets.
	L3 Level = 3
)

// String returns "L1", "L2" or "L3".
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	}
	return "L?"
}

// SPathMode returns 0 for C_SPATH0 and 1 for C_SPATH1, the parameter m
// of the paper's C_SPATH function.
func (l Level) SPathMode() int {
	if l >= L2 {
		return 1
	}
	return 0
}

// UseTouch reports whether TOUCH sets are maintained and compared.
func (l Level) UseTouch() bool { return l >= L3 }

// CSPath is the paper's C_SPATH(n1, n2, m) compatibility function over
// the derived SPATH sets of two nodes.
//
// m = 0 (C_SPATH0): the nodes must have the same zero-length simple
// paths — i.e. be referenced directly by the same pvars. This check is
// what keeps JOIN+COMPRESS inside an alias bucket (the join of two
// compatible graphs has their alias key), which the RSRSG merge layer
// relies on; TestPropertyJoinKeepsAliasKey pins it.
//
// m = 1 (C_SPATH1): additionally the one-length path sets must be
// compatible: either both nodes have no one-length simple path, or the
// two sets share at least one one-length path. This keeps locations one
// step away from a traversal pvar in their own node instead of folding
// them into far-away summaries — the refinement that fixes the
// Barnes-Hut SHSEL(body) imprecision in the paper's Sect. 5.1.
func CSPath(sp1, sp2 SPathSet, m int) bool {
	if !sp1.zeroLenEqual(sp2) {
		return false
	}
	if m == 0 {
		return true
	}
	if sp1.oneLenEmpty() && sp2.oneLenEmpty() {
		return true
	}
	return sp1.oneLenIntersects(sp2)
}

// CRefPat is the reference-pattern compatibility C_REFPAT(n1, n2): the
// definite reference-pattern sets must match. The possible sets may
// differ; MERGE_NODES reconciles them conservatively (Sect. 3.1). This
// is the definition that keeps the head, middle and tail of the paper's
// doubly-linked list example in distinct nodes.
func CRefPat(n1, n2 *Node) bool {
	return n1.SelIn.Equal(n2.SelIn) && n1.SelOut.Equal(n2.SelOut)
}

// CNodes is the paper's C_NODES(n1, n2) predicate (Sect. 4.3), used to
// decide whether nodes of two *different* RSGs may be merged by JOIN.
// It compares TYPE, SHARED, SHSEL, TOUCH (at L3), the reference
// patterns and the SPATHs — but not STRUCTURE, which only constrains
// intra-graph summarization.
func CNodes(lvl Level, n1, n2 *Node, sp1, sp2 SPathSet) bool {
	if n1.Type != n2.Type || n1.Shared != n2.Shared || !n1.ShSel.Equal(n2.ShSel) {
		return false
	}
	if lvl.UseTouch() && !n1.Touch.Equal(n2.Touch) {
		return false
	}
	if !CRefPat(n1, n2) {
		return false
	}
	return CSPath(sp1, sp2, lvl.SPathMode())
}

// CNodesJoin is the node-compatibility gate used by the COMPATIBLE
// predicate when deciding whether two whole RSGs may be fused. It
// checks TYPE, the share attributes, TOUCH and SPATH, but not C_REFPAT:
// MERGE_NODES reconciles differing reference patterns conservatively
// (definite sets intersect, possible sets union), so requiring equality
// here only multiplies the RSGs per sentence — on tree-building codes
// the number of per-alias-class reference-pattern combinations grows
// combinatorially and the RSRSG never collapses. Summarization inside
// one graph (C_NODES_RSG) keeps the strict C_REFPAT check, which is
// what preserves the head/middle/tail distinction of the paper's
// examples.
// CNodesJoin always compares SPATHs in mode 0: pvar-referenced nodes of
// two same-alias graphs trivially share their zero-length paths, and
// requiring common one-length paths at L2/L3 only fragments the RSRSG
// (the per-sentence sets grow past practicability on the sparse-matrix
// codes, while the paper reports quick L2 convergence). The L2/L3
// precision gains live in the summarization predicate C_NODES_RSG,
// which keeps the full C_SPATH(m) check.
func CNodesJoin(lvl Level, n1, n2 *Node, sp1, sp2 SPathSet) bool {
	if n1.Type != n2.Type || n1.Shared != n2.Shared || !n1.ShSel.Equal(n2.ShSel) {
		return false
	}
	if lvl.UseTouch() && !n1.Touch.Equal(n2.Touch) {
		return false
	}
	return CSPath(sp1, sp2, 0)
}

// CNodesRSG is the paper's C_NODES_RSG(n1, n2) predicate (Sect. 3.1),
// used to decide whether two nodes of the *same* RSG are summarized by
// COMPRESS. It is C_NODES plus the STRUCTURE requirement: comp1 and
// comp2 are the nodes' components as Graph.components numbers them,
// and two nodes have the same STRUCTURE exactly when they are in the
// same component.
func CNodesRSG(lvl Level, n1, n2 *Node, sp1, sp2 SPathSet, comp1, comp2 int32) bool {
	if comp1 != comp2 {
		return false
	}
	return CNodes(lvl, n1, n2, sp1, sp2)
}
