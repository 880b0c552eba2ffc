package rsg

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within one Graph. IDs are never reused within
// a graph, which keeps traces and DOT dumps stable.
type NodeID int

// Node is one RSG node. A node represents one or more memory locations
// that share the properties below (Sect. 3 of the paper). The property
// fields SELIN/SELOUT/PosSELIN/PosSELOUT, SHARED/SHSEL, CYCLELINKS and
// TOUCH are analysis *state*: they are maintained by the abstract
// semantics and merged by MERGE_NODES, not recomputed from the graph
// (except for freshly materialized singleton nodes, where the graph is
// exact). STRUCTURE and SPATH are derived properties recomputed on
// demand (see derive.go).
type Node struct {
	ID NodeID

	// Type is the struct type of the represented locations (the TYPE
	// property). Nodes of different types are never summarized.
	Type string

	// Singleton reports that in every concrete configuration covered by
	// the graph this node stands for exactly one location. malloc and
	// materialization create singletons; intra-graph summarization
	// (COMPRESS) clears the flag; inter-graph JOIN preserves it when
	// both merged nodes are singletons.
	Singleton bool

	// Shared is the SHARED property: at least one represented location
	// may be referenced more than once from other memory locations
	// (pvar references do not count).
	Shared bool

	// ShSel is the per-selector share property SHSEL(n, sel): at least
	// one represented location may be referenced more than once through
	// selector sel. Only true entries are stored.
	ShSel SelSet

	// SelIn / SelOut are the definite reference-pattern sets: every
	// represented location is referenced through each selector in SelIn
	// and references another location through each selector in SelOut.
	SelIn  SelSet
	SelOut SelSet

	// PosSelIn / PosSelOut are the possible reference-pattern sets:
	// some (but not necessarily all) represented locations have the
	// reference. Kept disjoint from the definite sets.
	PosSelIn  SelSet
	PosSelOut SelSet

	// Cycle is the CYCLELINKS property: definite simple cycles
	// <sel_out, sel_in> every represented location participates in.
	Cycle CycleSet

	// Touch is the TOUCH property: the set of induction pvars that have
	// visited the represented locations inside the current loop nest.
	// Only maintained at analysis level L3.
	Touch PvarSet
}

// NewNode returns a fresh node of the given type with empty property
// sets. The caller assigns the ID via Graph.AddNode.
func NewNode(typ string) *Node {
	return &Node{Type: typ}
}

// Clone returns a deep copy of the node (same ID). The property sets
// are copy-on-write values, so this is a single allocation.
func (n *Node) Clone() *Node {
	c := *n
	return &c
}

// SharedBy reports SHSEL(n, sel).
func (n *Node) SharedBy(sel string) bool { return n.ShSel.Has(sel) }

// SharedBySym is SharedBy addressed by interned selector.
func (n *Node) SharedBySym(sel Sym) bool { return n.ShSel.HasSym(sel) }

// MarkDefiniteOut records that every represented location has an
// outgoing sel reference, demoting any "possible" entry.
func (n *Node) MarkDefiniteOut(sel string) { n.MarkDefiniteOutSym(selTab.intern(sel)) }

// MarkDefiniteOutSym is MarkDefiniteOut addressed by interned selector.
func (n *Node) MarkDefiniteOutSym(sel Sym) {
	n.SelOut.AddSym(sel)
	n.PosSelOut.RemoveSym(sel)
}

// MarkDefiniteIn records that every represented location has an
// incoming sel reference, demoting any "possible" entry.
func (n *Node) MarkDefiniteIn(sel string) { n.MarkDefiniteInSym(selTab.intern(sel)) }

// MarkDefiniteInSym is MarkDefiniteIn addressed by interned selector.
func (n *Node) MarkDefiniteInSym(sel Sym) {
	n.SelIn.AddSym(sel)
	n.PosSelIn.RemoveSym(sel)
}

// MarkPossibleOut records a possible outgoing sel reference unless the
// reference is already definite.
func (n *Node) MarkPossibleOut(sel string) { n.MarkPossibleOutSym(selTab.intern(sel)) }

// MarkPossibleOutSym is MarkPossibleOut addressed by interned selector.
func (n *Node) MarkPossibleOutSym(sel Sym) {
	if !n.SelOut.HasSym(sel) {
		n.PosSelOut.AddSym(sel)
	}
}

// MarkPossibleIn records a possible incoming sel reference unless the
// reference is already definite.
func (n *Node) MarkPossibleIn(sel string) { n.MarkPossibleInSym(selTab.intern(sel)) }

// MarkPossibleInSym is MarkPossibleIn addressed by interned selector.
func (n *Node) MarkPossibleInSym(sel Sym) {
	if !n.SelIn.HasSym(sel) {
		n.PosSelIn.AddSym(sel)
	}
}

// ClearOutSym removes sel from both outgoing reference-pattern sets.
func (n *Node) ClearOutSym(sel Sym) {
	n.SelOut.RemoveSym(sel)
	n.PosSelOut.RemoveSym(sel)
}

// ClearInSym removes sel from both incoming reference-pattern sets.
func (n *Node) ClearInSym(sel Sym) {
	n.SelIn.RemoveSym(sel)
	n.PosSelIn.RemoveSym(sel)
}

// String renders a compact human-readable description of the node.
func (n *Node) String() string {
	var flags []string
	if n.Singleton {
		flags = append(flags, "1")
	} else {
		flags = append(flags, "*")
	}
	if n.Shared {
		flags = append(flags, "shared")
	}
	if !n.ShSel.Empty() {
		flags = append(flags, "shsel="+n.ShSel.String())
	}
	if !n.Cycle.Empty() {
		flags = append(flags, "cyc="+n.Cycle.String())
	}
	if !n.Touch.Empty() {
		flags = append(flags, "touch="+n.Touch.String())
	}
	sort.Strings(flags[1:])
	return fmt.Sprintf("n%d:%s[%s in=%s/%s out=%s/%s]",
		n.ID, n.Type, strings.Join(flags, " "),
		n.SelIn, n.PosSelIn, n.SelOut, n.PosSelOut)
}
