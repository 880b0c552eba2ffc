package rsg

import "testing"

func TestNPruneStaleOut(t *testing.T) {
	g := NewGraph()
	h := g.AddNode(NewNode("t"))
	h.Singleton = true
	g.SetPvar("x", h.ID)
	mid := g.AddNode(NewNode("t"))
	mid.MarkDefiniteOut("nxt") // definite out with no witnessing link
	g.AddLink(h.ID, "nxt", mid.ID)
	h.MarkDefiniteOut("nxt")
	mid.MarkDefiniteIn("nxt")

	// mid's unwitnessed definite SELOUT prunes mid; that removes the
	// witness of h's definite nxt reference, and since h is
	// pvar-referenced the whole graph collapses as infeasible — the
	// iterative cascade of Sect. 4.2.
	if Prune(g) {
		t.Fatalf("contradictory chain must make the graph infeasible:\n%s", g)
	}
	// A pvar-referenced node violating N_PRUNE directly is also
	// infeasible:
	g2 := NewGraph()
	h2 := g2.AddNode(NewNode("t"))
	h2.Singleton = true
	h2.MarkDefiniteOut("nxt")
	g2.SetPvar("x", h2.ID)
	if Prune(g2) {
		t.Error("pvar-referenced node violating N_PRUNE must make the graph infeasible")
	}
}

func TestNPruneStaleIn(t *testing.T) {
	g := NewGraph()
	h := g.AddNode(NewNode("t"))
	h.Singleton = true
	g.SetPvar("x", h.ID)
	a := g.AddNode(NewNode("t"))
	a.MarkDefiniteIn("prv") // nothing references a through prv
	g.AddLink(h.ID, "nxt", a.ID)
	a.MarkPossibleIn("nxt")
	h.MarkPossibleOut("nxt")

	if !Prune(g) {
		t.Fatal("feasible graph rejected")
	}
	if g.Node(a.ID) != nil {
		t.Errorf("node with unwitnessed definite SELIN must be pruned:\n%s", g)
	}
}

func TestNLPruneCycleRule(t *testing.T) {
	// a -s-> b with Cycle(a) = {<s,r>} but b has no r link back to a.
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	a.Singleton = true
	g.SetPvar("x", a.ID)
	b := g.AddNode(NewNode("t"))
	c := g.AddNode(NewNode("t"))
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(a.ID, "s", c.ID)
	a.MarkDefiniteOut("s")
	a.Cycle.Add(CyclePair{Out: "s", In: "r"})
	b.MarkPossibleIn("s")
	c.MarkPossibleIn("s")
	// Only c points back.
	g.AddLink(c.ID, "r", a.ID)
	c.MarkDefiniteOut("r")
	a.MarkPossibleIn("r")

	if !Prune(g) {
		t.Fatal("feasible graph rejected")
	}
	if g.HasLink(a.ID, "s", b.ID) {
		t.Error("link to non-cycle-closing candidate must be pruned")
	}
	if !g.HasLink(a.ID, "s", c.ID) {
		t.Error("cycle-closing link must survive")
	}
	if g.Node(b.ID) != nil {
		t.Error("b became unreachable and must be collected")
	}
}

func TestSharePruneSelector(t *testing.T) {
	// b not shared by s; a definite link exists; a second candidate
	// link must be evicted.
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	a.Singleton = true
	a.MarkDefiniteOut("s")
	g.SetPvar("x", a.ID)
	other := g.AddNode(NewNode("t"))
	other.MarkPossibleOut("s")
	g.SetPvar("y", other.ID)
	b := g.AddNode(NewNode("t"))
	b.Singleton = true
	b.MarkDefiniteIn("s")
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(other.ID, "s", b.ID)

	if !Prune(g) {
		t.Fatal("feasible graph rejected")
	}
	if g.HasLink(other.ID, "s", b.ID) {
		t.Errorf("SHSEL=false plus a definite link must evict other candidates:\n%s", g)
	}
	if !g.HasLink(a.ID, "s", b.ID) {
		t.Error("the definite link must survive")
	}
}

func TestSharePruneRespectsSharedFlag(t *testing.T) {
	// Same as above but b IS shared by s: both links stay.
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	a.Singleton = true
	a.MarkDefiniteOut("s")
	g.SetPvar("x", a.ID)
	other := g.AddNode(NewNode("t"))
	other.MarkPossibleOut("s")
	g.SetPvar("y", other.ID)
	b := g.AddNode(NewNode("t"))
	b.Singleton = true
	b.Shared = true
	b.ShSel.Add("s")
	b.MarkDefiniteIn("s")
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(other.ID, "s", b.ID)

	if !Prune(g) {
		t.Fatal("feasible graph rejected")
	}
	if !g.HasLink(other.ID, "s", b.ID) || !g.HasLink(a.ID, "s", b.ID) {
		t.Errorf("shared target keeps all incoming candidates:\n%s", g)
	}
}

func TestSharePruneTotal(t *testing.T) {
	// SHARED=false: one definite in-link evicts links through any other
	// selector too.
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	a.Singleton = true
	a.MarkDefiniteOut("s")
	g.SetPvar("x", a.ID)
	other := g.AddNode(NewNode("t"))
	other.MarkPossibleOut("r")
	g.SetPvar("y", other.ID)
	b := g.AddNode(NewNode("t"))
	b.Singleton = true
	b.MarkDefiniteIn("s")
	b.MarkPossibleIn("r")
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(other.ID, "r", b.ID)

	if !Prune(g) {
		t.Fatal("feasible graph rejected")
	}
	if g.HasLink(other.ID, "r", b.ID) {
		t.Errorf("unshared target with a definite reference admits no other in-links:\n%s", g)
	}
}

func TestPruneIdempotent(t *testing.T) {
	g, _, _, _ := dlist(true)
	if !Prune(g) {
		t.Fatal("dlist must be feasible")
	}
	sig := Signature(g)
	if !Prune(g) {
		t.Fatal("second prune rejected the graph")
	}
	if Signature(g) != sig {
		t.Error("prune must be idempotent on a stable graph")
	}
}

// TestPruneLeavesNoGarbage pins what lets the transfer functions
// compress a pruned graph without collecting it first: Prune returns
// true only after a round in which its garbage collection removed
// nothing, so collecting again removes nothing and leaves the digest.
func TestPruneLeavesNoGarbage(t *testing.T) {
	accepted := 0
	for seed := int64(0); seed < 64; seed++ {
		for i, g := range kernelGraphs(seed) {
			c := g.Clone()
			if !Prune(c) {
				continue
			}
			accepted++
			before := c.Digest()
			if n := c.CollectGarbage(); n != 0 {
				t.Fatalf("seed %d graph %d: CollectGarbage removed %d nodes after Prune accepted the graph:\n%s", seed, i, n, c)
			}
			if c.Digest() != before {
				t.Fatalf("seed %d graph %d: CollectGarbage after Prune moved the digest", seed, i)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("Prune accepted no fixture graph")
	}
}

func TestPruneKeepsConsistentDlist(t *testing.T) {
	g, n1, n2, n3 := dlist(true)
	if !Prune(g) {
		t.Fatal("dlist must be feasible")
	}
	// The fixture is self-consistent: nothing may be removed.
	for _, l := range []Link{
		{n1.ID, "nxt", n2.ID}, {n1.ID, "nxt", n3.ID},
		{n2.ID, "nxt", n2.ID}, {n2.ID, "nxt", n3.ID},
		{n2.ID, "prv", n2.ID}, {n2.ID, "prv", n1.ID},
		{n3.ID, "prv", n2.ID}, {n3.ID, "prv", n1.ID},
	} {
		if !g.HasLink(l.Src, l.Sel, l.Dst) {
			t.Errorf("consistent link %v was pruned", l)
		}
	}
}
