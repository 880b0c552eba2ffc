package absem

import (
	"testing"

	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

func ctx(lvl rsg.Level) *Context {
	return &Context{Level: lvl}
}

func single(g *rsg.Graph) *rsrsg.Set {
	s := rsrsg.New()
	s.Add(g)
	return s
}

func empty() *rsrsg.Set {
	return single(rsg.NewGraph())
}

// buildList executes, abstractly, the statement sequence that builds a
// singly-linked list of unbounded length:
//
//	head = malloc; head->nxt = NULL; p = head;
//	loop { q = malloc; q->nxt = NULL; p->nxt = q; p = q; }
//
// iterating the loop body until the RSRSG reaches a fixed point, and
// returns the final set.
func buildList(t *testing.T, c *Context) *rsrsg.Set {
	t.Helper()
	s := empty()
	s = XMalloc(c, s, "head", "node")
	s = XSelNil(c, s, "head", "nxt")
	s = XCopy(c, s, "p", "head")

	body := func(in *rsrsg.Set) *rsrsg.Set {
		out := XMalloc(c, in, "q", "node")
		out = XSelNil(c, out, "q", "nxt")
		out = XSelCopy(c, out, "p", "nxt", "q")
		out = XCopy(c, out, "p", "q")
		out = XNil(c, out, "q")
		return out
	}
	// Fixed point over "zero or more iterations".
	cur := s
	for i := 0; i < 50; i++ {
		next := rsrsg.UnionAll(c.Level, []*rsrsg.Set{cur, body(cur)}, c.Opts)
		if next.Equal(cur) {
			return cur
		}
		cur = next
	}
	t.Fatalf("list construction did not reach a fixed point in 50 iterations")
	return nil
}

func TestMallocCreatesSingleton(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "x", "node")
	if s.Len() != 1 {
		t.Fatalf("got %d graphs, want 1", s.Len())
	}
	g := s.Graphs()[0]
	n := g.PvarTarget("x")
	if n == nil {
		t.Fatal("x does not reference the fresh node")
	}
	if !n.Singleton || n.Shared || n.Type != "node" {
		t.Errorf("fresh node has wrong properties: %s", n)
	}
	if g.NumNodes() != 1 || g.NumLinks() != 0 {
		t.Errorf("fresh graph should have exactly the malloc node, got:\n%s", g)
	}
}

func TestNilDropsUnreachable(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "x", "node")
	s = XNil(c, s, "x")
	g := s.Graphs()[0]
	if g.NumNodes() != 0 {
		t.Errorf("after x = NULL the heap node is garbage and must be collected, got:\n%s", g)
	}
}

func TestCopyAliases(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "x", "node")
	s = XCopy(c, s, "y", "x")
	g := s.Graphs()[0]
	xt, yt := g.PvarTarget("x"), g.PvarTarget("y")
	if xt == nil || yt == nil || xt.ID != yt.ID {
		t.Fatalf("x and y must alias after x = y:\n%s", g)
	}
	if xt.Shared {
		t.Errorf("pvar references do not count toward SHARED")
	}
}

func TestSelfCopyIsIdentity(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "x", "node")
	s2 := XCopy(c, s, "x", "x")
	if !s.Equal(s2) {
		t.Errorf("x = x must not change the RSRSG")
	}
}

func TestSelCopyLinksAndShareInfo(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "a", "node")
	s = XMalloc(c, s, "b", "node")
	s = XSelCopy(c, s, "a", "nxt", "b")
	g := s.Graphs()[0]
	at, bt := g.PvarTarget("a"), g.PvarTarget("b")
	if !g.HasLink(at.ID, "nxt", bt.ID) {
		t.Fatalf("missing <a,nxt,b> link:\n%s", g)
	}
	if !at.SelOut.Has("nxt") {
		t.Errorf("nxt must be definite in SELOUT(a)")
	}
	if !bt.SelIn.Has("nxt") {
		t.Errorf("nxt must be definite in SELIN(b)")
	}
	if bt.Shared || bt.SharedBy("nxt") {
		t.Errorf("a single reference must not set the share attributes: %s", bt)
	}
}

func TestSelCopySharingDetected(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "a", "node")
	s = XMalloc(c, s, "b", "node")
	s = XMalloc(c, s, "t", "node")
	s = XSelCopy(c, s, "a", "nxt", "t")
	s = XSelCopy(c, s, "b", "nxt", "t")
	g := s.Graphs()[0]
	tt := g.PvarTarget("t")
	if !tt.Shared || !tt.SharedBy("nxt") {
		t.Errorf("t is referenced twice through nxt; SHARED and SHSEL(nxt) must hold: %s", tt)
	}

	// Removing one of the two references makes the target unshared
	// again (the remaining sources are all singletons, so the analysis
	// can prove it).
	s = XSelNil(c, s, "b", "nxt")
	g = s.Graphs()[0]
	tt = g.PvarTarget("t")
	if tt.SharedBy("nxt") {
		t.Errorf("after b->nxt = NULL only one nxt reference remains: %s", tt)
	}
	if tt.Shared {
		t.Errorf("after b->nxt = NULL the node is not shared: %s", tt)
	}
}

func TestSelNilOnNullSelectorIsNoop(t *testing.T) {
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "a", "node")
	s2 := XSelNil(c, s, "a", "nxt") // a->nxt is already NULL
	if s2.Len() != 1 {
		t.Fatalf("got %d graphs, want 1", s2.Len())
	}
	g := s2.Graphs()[0]
	if g.NumLinks() != 0 || g.NumNodes() != 1 {
		t.Errorf("a->nxt = NULL on a fresh node must keep the graph trivial:\n%s", g)
	}
}

func TestNullDereferenceDropsGraph(t *testing.T) {
	c := ctx(rsg.L1)
	s := empty()
	s2 := XSelNil(c, s, "a", "nxt") // a is NULL
	if s2.Len() != 0 {
		t.Fatalf("dereferencing NULL must produce no successor configuration")
	}
}

func TestLoadMaterializesTraversal(t *testing.T) {
	c := ctx(rsg.L1)
	s := buildList(t, c)

	// Traverse one step: p2 = head->nxt.
	s2 := XLoad(c, s, "p2", "head", "nxt")
	if s2.Len() == 0 {
		t.Fatal("traversal produced no graphs")
	}
	for _, g := range s2.Graphs() {
		p2 := g.PvarTarget("p2")
		if p2 == nil {
			continue // branch where head->nxt == NULL (single-element list)
		}
		if !p2.Singleton {
			t.Errorf("p2 must reference a materialized singleton: %s\n%s", p2, g)
		}
		if p2.SharedBy("nxt") {
			t.Errorf("list element must not be shared by nxt: %s", p2)
		}
	}
}

func TestListFixedPointShape(t *testing.T) {
	c := ctx(rsg.L1)
	s := buildList(t, c)

	if s.Len() == 0 {
		t.Fatal("empty RSRSG after list construction")
	}
	if s.Len() > 4 {
		t.Errorf("list fixed point should stay small, got %d graphs", s.Len())
	}
	for _, g := range s.Graphs() {
		for _, n := range g.Nodes() {
			if n.Shared {
				t.Errorf("singly-linked list nodes are never shared: %s\n%s", n, g)
			}
			if n.SharedBy("nxt") {
				t.Errorf("list nodes are never shared by nxt: %s\n%s", n, g)
			}
		}
		// head references the first element.
		if g.PvarTarget("head") == nil {
			t.Errorf("head lost its reference:\n%s", g)
		}
	}
}

func TestTouchTracking(t *testing.T) {
	c := ctx(rsg.L3)
	c.InLoop = true
	c.Induction = rsg.NewPvarSet("p")

	s := XMalloc(c, empty(), "head", "node")
	s = XCopy(c, s, "p", "head")
	g := s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Has("p") {
		t.Errorf("p = head inside a loop must record the visit of induction pvar p: %s",
			g.PvarTarget("p"))
	}

	// Erasing the loop's ipvars clears the sets.
	s = EraseTouch(c, s, rsg.NewPvarSet("p"))
	g = s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Empty() {
		t.Errorf("EraseTouch must clear the loop's induction pvars")
	}
}

func TestTouchIgnoredBelowL3(t *testing.T) {
	c := ctx(rsg.L2)
	c.InLoop = true
	c.Induction = rsg.NewPvarSet("p")
	s := XMalloc(c, empty(), "head", "node")
	s = XCopy(c, s, "p", "head")
	g := s.Graphs()[0]
	if !g.PvarTarget("p").Touch.Empty() {
		t.Errorf("TOUCH sets must not be built below L3")
	}
}
