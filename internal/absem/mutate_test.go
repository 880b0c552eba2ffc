package absem

import (
	"testing"

	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// buildPair returns a graph with a -s-> b, both singletons, pvars x->a
// and y->b.
func buildPair(t *testing.T) (*rsg.Graph, *rsg.Node, *rsg.Node) {
	t.Helper()
	g := rsg.NewGraph()
	a := rsg.NewNode("t")
	a.Singleton = true
	g.AddNode(a)
	b := rsg.NewNode("t")
	b.Singleton = true
	g.AddNode(b)
	g.SetPvar("x", a.ID)
	g.SetPvar("y", b.ID)
	link(g, a.ID, "s", b.ID)
	return g, a, b
}

func TestLinkSetsState(t *testing.T) {
	g, a, b := buildPair(t)
	if !a.SelOut.Has("s") {
		t.Error("link must set definite SELOUT on the source")
	}
	if !b.SelIn.Has("s") {
		t.Error("link must set definite SELIN on the target")
	}
	if b.Shared || b.SharedBy("s") {
		t.Error("single reference is not sharing")
	}
	if !g.HasLink(a.ID, "s", b.ID) {
		t.Error("link missing")
	}
}

func TestLinkDetectsSharing(t *testing.T) {
	g, _, b := buildPair(t)
	c := rsg.NewNode("t")
	c.Singleton = true
	g.AddNode(c)
	g.SetPvar("z", c.ID)
	link(g, c.ID, "s", b.ID)
	if !b.SharedBy("s") || !b.Shared {
		t.Errorf("second s reference must set SHSEL and SHARED: %s", b)
	}

	// A reference through a different selector sets SHARED only.
	g2, _, b2 := buildPair(t)
	c2 := rsg.NewNode("t")
	c2.Singleton = true
	g2.AddNode(c2)
	g2.SetPvar("z", c2.ID)
	link(g2, c2.ID, "r", b2.ID)
	if b2.SharedBy("r") || b2.SharedBy("s") {
		t.Errorf("one reference per selector: no SHSEL, got %s", b2)
	}
	if !b2.Shared {
		t.Errorf("two total references must set SHARED: %s", b2)
	}
}

func TestLinkCreatesCycleInfo(t *testing.T) {
	g, a, b := buildPair(t)
	link(g, b.ID, "r", a.ID)
	if !b.Cycle.Has(rsg.CyclePair{Out: "r", In: "s"}) {
		t.Errorf("Cycle(b) = %s, want <r,s>", b.Cycle)
	}
	if !a.Cycle.Has(rsg.CyclePair{Out: "s", In: "r"}) {
		t.Errorf("Cycle(a) = %s, want <s,r>", a.Cycle)
	}
}

func TestUnlinkClearsState(t *testing.T) {
	g, a, b := buildPair(t)
	link(g, b.ID, "r", a.ID) // cycle a <-> b
	unlink(g, a.ID, "s", b.ID)
	if a.SelOut.Has("s") || a.PosSelOut.Has("s") {
		t.Errorf("source out state not cleared: %s", a)
	}
	if b.SelIn.Has("s") || b.PosSelIn.Has("s") {
		t.Errorf("target in state not cleared: %s", b)
	}
	if !a.Cycle.Empty() {
		t.Errorf("Cycle(a) must drop pairs starting with s: %s", a.Cycle)
	}
	if b.Cycle.Has(rsg.CyclePair{Out: "r", In: "s"}) {
		t.Errorf("Cycle(b) must drop pairs returning through s: %s", b.Cycle)
	}
	if g.HasLink(a.ID, "s", b.ID) {
		t.Error("link still present")
	}
}

func TestUnlinkUnshares(t *testing.T) {
	g, _, b := buildPair(t)
	c := rsg.NewNode("t")
	c.Singleton = true
	g.AddNode(c)
	g.SetPvar("z", c.ID)
	link(g, c.ID, "s", b.ID)
	if !b.SharedBy("s") {
		t.Fatal("precondition: b shared by s")
	}
	unlink(g, c.ID, "s", b.ID)
	if b.SharedBy("s") {
		t.Errorf("one singleton-sourced reference remains; SHSEL must clear: %s", b)
	}
	if b.Shared {
		t.Errorf("SHARED must clear when one reference remains: %s", b)
	}
}

func TestSelfLinkCycle(t *testing.T) {
	g := rsg.NewGraph()
	a := rsg.NewNode("t")
	a.Singleton = true
	g.AddNode(a)
	g.SetPvar("x", a.ID)
	link(g, a.ID, "s", a.ID)
	if !a.Cycle.Has(rsg.CyclePair{Out: "s", In: "s"}) {
		t.Errorf("self link must record <s,s>: %s", a.Cycle)
	}
	// Self reference counts as a heap reference: not shared though
	// (single reference).
	if a.Shared {
		t.Errorf("self link alone is one reference: %s", a)
	}
}

// TestStepFunctionsShareUnchangedGraphs verifies the no-op fast paths:
// the same *Graph pointer comes back, so no new graph is built,
// frozen or interned.
func TestStepFunctionsShareUnchangedGraphs(t *testing.T) {
	ctx := &Context{Level: rsg.L1}
	g := rsg.NewGraph()

	if out := StepNil(ctx, g, "x"); len(out) != 1 || out[0] != g {
		t.Error("StepNil on a NULL pvar must share the graph")
	}
	if out := StepCopy(ctx, g, "x", "y"); len(out) != 1 || out[0] != g {
		t.Error("StepCopy with both NULL must share the graph")
	}
	if out := StepEraseTouch(ctx, g, rsg.NewPvarSet("p")); len(out) != 1 || out[0] != g {
		t.Error("StepEraseTouch with no touched nodes must share the graph")
	}
}

func TestStepDereferenceNullReturnsNil(t *testing.T) {
	ctx := &Context{Level: rsg.L1}
	g := rsg.NewGraph()
	if out := StepSelNil(ctx, g, "x", "s"); out != nil {
		t.Error("StepSelNil through NULL must produce no successors")
	}
	if out := StepSelCopy(ctx, g, "x", "s", "y"); out != nil {
		t.Error("StepSelCopy through NULL must produce no successors")
	}
	if out := StepLoad(ctx, g, "x", "y", "s"); out != nil {
		t.Error("StepLoad through NULL must produce no successors")
	}
}

func TestSetAndStepAgree(t *testing.T) {
	// The Set-level wrappers must agree with mapping the Step functions
	// manually.
	c := ctx(rsg.L1)
	s := XMalloc(c, empty(), "a", "node")
	s = XMalloc(c, s, "b", "node")
	s = XSelCopy(c, s, "a", "nxt", "b")

	manual := rsrsg.New()
	for _, g := range s.Graphs() {
		for _, og := range StepSelNil(c, g, "a", "nxt") {
			manual.Add(og)
		}
	}
	manual.Reduce(rsg.L1, c.Opts)

	viaSet := XSelNil(c, s, "a", "nxt")
	if !manual.Equal(viaSet) {
		t.Errorf("Set wrapper and Step mapping disagree:\n%s\nvs\n%s", manual, viaSet)
	}
}
