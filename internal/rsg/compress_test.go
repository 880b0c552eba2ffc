package rsg

import "testing"

// chain builds a singly-linked chain of n singleton nodes of type "t"
// with selector "nxt", head referenced by pvar "h".
func chain(n int) (*Graph, []*Node) {
	g := NewGraph()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := NewNode("t")
		nd.Singleton = true
		if i > 0 {
			nd.MarkDefiniteIn("nxt")
		}
		if i < n-1 {
			nd.MarkDefiniteOut("nxt")
		}
		g.AddNode(nd)
		nodes[i] = nd
	}
	for i := 0; i+1 < n; i++ {
		g.AddLink(nodes[i].ID, "nxt", nodes[i+1].ID)
	}
	g.SetPvar("h", nodes[0].ID)
	return g, nodes
}

func TestCompressSummarizesChainMiddle(t *testing.T) {
	g, _ := chain(6)
	merges := Compress(g, L1)
	if merges == 0 {
		t.Fatal("no merges on a 6-element chain")
	}
	// Expected classes: head (pvar zero-path), the node one step from
	// the head is distinguishable only at L2; at L1 middles merge. The
	// tail differs by SELOUT.
	if got := g.NumNodes(); got != 3 {
		t.Errorf("compressed chain has %d nodes, want 3 (head/middle/tail):\n%s", got, g)
	}
	// Exactly one summary node.
	summaries := 0
	for _, n := range g.Nodes() {
		if !n.Singleton {
			summaries++
		}
	}
	if summaries != 1 {
		t.Errorf("%d summary nodes, want 1", summaries)
	}
}

func TestCompressRespectsTypes(t *testing.T) {
	g := NewGraph()
	a := NewNode("t1")
	b := NewNode("t2")
	g.AddNode(a)
	g.AddNode(b)
	h := NewNode("t1")
	h.MarkDefiniteOut("s")
	g.AddNode(h)
	g.SetPvar("h", h.ID)
	g.AddLink(h.ID, "s", a.ID)
	g.AddLink(h.ID, "s", b.ID)
	a.MarkPossibleIn("s")
	b.MarkPossibleIn("s")
	if Compress(g, L1) != 0 {
		t.Error("nodes of different TYPE must never merge")
	}
}

func TestCompressRespectsStructure(t *testing.T) {
	// Two disjoint single-node structures anchored by different pvars:
	// identical properties but different STRUCTURE, so no merge.
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	g.SetPvar("x", a.ID)
	g.SetPvar("y", b.ID)
	if Compress(g, L1) != 0 {
		t.Error("nodes in different structures (and different SPATHs) must not merge")
	}
}

func TestCompressStructureAloneSeparates(t *testing.T) {
	// Two pvar-less components a1 -s-> a2 and b1 -s-> b2. a1 and b1
	// agree on every property and on SPATH (both empty), and so do a2
	// and b2: only STRUCTURE keeps the components apart.
	build := func() (*Graph, [4]*Node) {
		g := NewGraph()
		var ns [4]*Node
		for i := range ns {
			ns[i] = g.AddNode(NewNode("t"))
		}
		for _, pair := range [][2]*Node{{ns[0], ns[1]}, {ns[2], ns[3]}} {
			pair[0].MarkDefiniteOut("s")
			pair[1].MarkDefiniteIn("s")
			g.AddLink(pair[0].ID, "s", pair[1].ID)
		}
		return g, ns
	}
	for _, lvl := range []Level{L1, L2, L3} {
		g, _ := build()
		if m := Compress(g, lvl); m != 0 {
			t.Errorf("%s: %d merges across two components:\n%s", lvl, m, g)
		}
		// Control: one link joins the components, and the two heads and
		// the two tails merge.
		g, ns := build()
		ns[1].MarkPossibleOut("u")
		ns[3].MarkPossibleOut("u")
		g.AddLink(ns[1].ID, "u", ns[2].ID)
		ns[2].MarkPossibleIn("u")
		ns[0].MarkPossibleIn("u")
		if m := Compress(g, lvl); m != 2 || g.NumNodes() != 2 {
			t.Errorf("%s: one component: %d merges, %d nodes, want 2 and 2:\n%s", lvl, m, g.NumNodes(), g)
		}
	}
}

func TestCompressRespectsShare(t *testing.T) {
	g, _ := chain(6)
	// Taint one middle node's share bit: it must stay out of the summary.
	ids := g.NodeIDs()
	mid := g.Node(ids[3])
	mid.Shared = true
	Compress(g, L1)
	found := false
	for _, n := range g.Nodes() {
		if n.Shared {
			found = true
			if !n.Singleton {
				// the shared node may only merge with other shared nodes
				t.Errorf("shared node merged into an unshared summary: %s", n)
			}
		}
	}
	if !found {
		t.Error("shared node disappeared")
	}
}

func TestCompressL2KeepsOneStepNodesSeparate(t *testing.T) {
	g, _ := chain(6)
	merges := Compress(g, L2)
	if merges == 0 {
		t.Fatal("no merges at L2")
	}
	// At L2 the node one step from h (<h,nxt>) cannot merge with far
	// middles (C_SPATH1), so we get head / second / middles / tail.
	if got := g.NumNodes(); got != 4 {
		t.Errorf("L2-compressed chain has %d nodes, want 4:\n%s", got, g)
	}
}

func TestCompressTouchSeparation(t *testing.T) {
	g, nodes := chain(6)
	// Mark nodes 1..2 as visited by induction pvar p.
	nodes[1].Touch.Add("p")
	nodes[2].Touch.Add("p")
	Compress(g, L3)
	// Touched middles and untouched middles must be distinct nodes.
	var touchedSummary, untouched bool
	for _, n := range g.Nodes() {
		if !n.Touch.Empty() {
			touchedSummary = true
		} else {
			untouched = true
		}
	}
	if !touchedSummary || !untouched {
		t.Errorf("TOUCH separation lost:\n%s", g)
	}
	// At L1 the same graph merges regardless of TOUCH.
	g2, nodes2 := chain(6)
	nodes2[1].Touch.Add("p")
	nodes2[2].Touch.Add("p")
	m1 := Compress(g2, L1)
	if m1 == 0 {
		t.Error("L1 must ignore TOUCH when summarizing")
	}
}

func TestCompressIdempotent(t *testing.T) {
	g, _ := chain(8)
	Compress(g, L1)
	sig := Signature(g)
	if again := Compress(g, L1); again != 0 {
		t.Errorf("second compress merged %d more nodes", again)
	}
	if Signature(g) != sig {
		t.Error("second compress changed the graph")
	}
}

func TestMergeNodesPaperRules(t *testing.T) {
	g := NewGraph()
	n1 := NewNode("t")
	n1.MarkDefiniteIn("a")
	n1.MarkDefiniteIn("b")
	n1.MarkDefiniteOut("x")
	n1.MarkPossibleOut("y")
	n2 := NewNode("t")
	n2.MarkDefiniteIn("a")
	n2.MarkDefiniteOut("x")
	n2.MarkDefiniteOut("y")
	g.AddNode(n1)
	g.AddNode(n2)

	m := MergeNodes(g, n1, g, n2, true)
	if !m.SelIn.Equal(NewSelSet("a")) {
		t.Errorf("SELIN = %s, want {a}", m.SelIn)
	}
	if !m.PosSelIn.Equal(NewSelSet("b")) {
		t.Errorf("PosSELIN = %s, want {b}", m.PosSelIn)
	}
	if !m.SelOut.Equal(NewSelSet("x")) {
		t.Errorf("SELOUT = %s, want {x}", m.SelOut)
	}
	if !m.PosSelOut.Equal(NewSelSet("y")) {
		t.Errorf("PosSELOUT = %s, want {y}", m.PosSelOut)
	}
	if m.Singleton {
		t.Error("intra-graph merge must clear Singleton")
	}
}

func TestMergeNodesCycleRule(t *testing.T) {
	g := NewGraph()
	n1 := NewNode("t")
	n1.Cycle.Add(CyclePair{Out: "nxt", In: "prv"})
	n2 := NewNode("t")
	g.AddNode(n1)
	g.AddNode(n2)
	other := g.AddNode(NewNode("t"))

	// n2 has no nxt link: the pair survives (vacuously true for n2).
	m := MergeNodes(g, n1, g, n2, true)
	if !m.Cycle.Has(CyclePair{Out: "nxt", In: "prv"}) {
		t.Errorf("pair should survive when the other node has no nxt link: %s", m.Cycle)
	}

	// Give n2 an nxt link: now the pair must be dropped.
	g.AddLink(n2.ID, "nxt", other.ID)
	m = MergeNodes(g, n1, g, n2, true)
	if m.Cycle.Has(CyclePair{Out: "nxt", In: "prv"}) {
		t.Errorf("pair must drop when the other node has an nxt link without the cycle: %s", m.Cycle)
	}

	// Pair present in both always survives.
	n2.Cycle.Add(CyclePair{Out: "nxt", In: "prv"})
	m = MergeNodes(g, n1, g, n2, true)
	if !m.Cycle.Has(CyclePair{Out: "nxt", In: "prv"}) {
		t.Errorf("common pair must survive: %s", m.Cycle)
	}
}

func TestMergeNodesJoinKeepsSingleton(t *testing.T) {
	g1 := NewGraph()
	g2 := NewGraph()
	a := NewNode("t")
	a.Singleton = true
	b := NewNode("t")
	b.Singleton = true
	g1.AddNode(a)
	g2.AddNode(b)
	if m := MergeNodes(g1, a, g2, b, false); !m.Singleton {
		t.Error("inter-graph merge of singletons stays a per-config singleton")
	}
	b.Singleton = false
	if m := MergeNodes(g1, a, g2, b, false); m.Singleton {
		t.Error("merging with a summary clears Singleton")
	}
}
