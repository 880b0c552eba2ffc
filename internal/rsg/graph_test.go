package rsg

import (
	"slices"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	if a.ID == b.ID {
		t.Fatal("IDs must be unique")
	}
	g.SetPvar("x", a.ID)
	g.AddLink(a.ID, "nxt", b.ID)

	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Errorf("sizes: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if !g.HasLink(a.ID, "nxt", b.ID) || g.HasLink(b.ID, "nxt", a.ID) {
		t.Error("HasLink wrong")
	}
	if got := g.Targets(a.ID, "nxt"); len(got) != 1 || got[0] != b.ID {
		t.Errorf("Targets = %v", got)
	}
	if got := g.Sources(b.ID, "nxt"); len(got) != 1 || got[0] != a.ID {
		t.Errorf("Sources = %v", got)
	}
	if g.PvarTarget("x").ID != a.ID || g.PvarTarget("y") != nil {
		t.Error("PvarTarget wrong")
	}
	if got := g.PvarsOf(a.ID); len(got) != 1 || got[0] != "x" {
		t.Errorf("PvarsOf = %v", got)
	}
}

func TestGraphLinkCountMaintained(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(a.ID, "s", b.ID) // idempotent
	if g.NumLinks() != 1 {
		t.Errorf("duplicate add counted: %d", g.NumLinks())
	}
	g.RemoveLink(a.ID, "s", b.ID)
	g.RemoveLink(a.ID, "s", b.ID) // idempotent
	if g.NumLinks() != 0 {
		t.Errorf("count after removals: %d", g.NumLinks())
	}
}

func TestGraphRemoveNode(t *testing.T) {
	g, _, n2, _ := dlist(true)
	links := g.NumLinks()
	g.RemoveNode(n2.ID)
	if g.Node(n2.ID) != nil {
		t.Fatal("node still present")
	}
	for _, l := range g.Links() {
		if l.Src == n2.ID || l.Dst == n2.ID {
			t.Errorf("stale link %v", l)
		}
	}
	if g.NumLinks() >= links {
		t.Error("links not removed")
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g, n1, n2, _ := dlist(true)
	c := g.Clone()
	c.RemoveLink(n1.ID, "nxt", n2.ID)
	c.Node(n1.ID).Shared = true
	c.ClearPvar("x")
	if !g.HasLink(n1.ID, "nxt", n2.ID) {
		t.Error("clone shares links")
	}
	if g.Node(n1.ID).Shared {
		t.Error("clone shares nodes")
	}
	if g.PvarTarget("x") == nil {
		t.Error("clone shares pvars")
	}
	if Signature(c) == Signature(g) {
		t.Error("modified clone should differ")
	}
}

func TestReachableAndGC(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	orphan := g.AddNode(NewNode("t"))
	g.SetPvar("x", a.ID)
	g.AddLink(a.ID, "s", b.ID)
	g.AddLink(orphan.ID, "s", b.ID)
	b.MarkDefiniteIn("s")

	removed := g.CollectGarbage()
	if removed != 1 || g.Node(orphan.ID) != nil {
		t.Fatalf("GC removed %d nodes", removed)
	}
	// The orphan's link into b demotes the definite SELIN entry.
	if b.SelIn.Has("s") {
		t.Error("definite SELIN must be demoted when its witness is collected")
	}
	if !b.PosSelIn.Has("s") {
		t.Error("the demoted entry must appear in PosSELIN")
	}
}

func TestDefiniteLink(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	c := g.AddNode(NewNode("t"))
	a.Singleton = true
	g.AddLink(a.ID, "s", b.ID)

	if g.DefiniteLink(a.ID, "s", b.ID) {
		t.Error("without SELOUT the link is not definite")
	}
	a.MarkDefiniteOut("s")
	if !g.DefiniteLink(a.ID, "s", b.ID) {
		t.Error("definite link not recognized")
	}
	g.AddLink(a.ID, "s", c.ID)
	if g.DefiniteLink(a.ID, "s", b.ID) {
		t.Error("two candidate targets: not definite")
	}
	// Summary sources are never definite.
	d := g.AddNode(NewNode("t"))
	d.MarkDefiniteOut("s")
	g.AddLink(d.ID, "s", b.ID)
	if g.DefiniteLink(d.ID, "s", b.ID) {
		t.Error("summary source must not yield a definite link")
	}
}

func TestStructureOf(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("t"))
	b := g.AddNode(NewNode("t"))
	c := g.AddNode(NewNode("t"))
	d := g.AddNode(NewNode("t"))
	g.SetPvar("x", a.ID)
	g.SetPvar("y", c.ID)
	g.AddLink(a.ID, "s", b.ID)

	st := func(id NodeID) int32 { return g.components(nil)[g.posOf(id)] }
	if st(a.ID) != st(b.ID) {
		t.Error("connected nodes must share a structure id")
	}
	if st(a.ID) == st(c.ID) {
		t.Error("separate components must have different structure ids")
	}
	if st(c.ID) == st(d.ID) {
		t.Error("unreachable node must not share y's structure")
	}
	// A link into a smaller position still names the component by its
	// smallest position, whichever way the link points.
	g.AddLink(d.ID, "s", a.ID)
	if st(d.ID) != int32(g.posOf(a.ID)) || st(b.ID) != int32(g.posOf(a.ID)) {
		t.Errorf("component roots %v, want every node of {a, b, d} rooted at a", g.components(nil))
	}
}

func TestSPathOf(t *testing.T) {
	g, n1, n2, n3 := dlist(true)
	sp1 := g.SPathOf(n1.ID)
	if !sp1.Has(SPath{Pvar: "x"}) {
		t.Errorf("n1 SPATH missing <x,.>: %s", sp1)
	}
	// last->prv reaches both n1 and n2.
	if !sp1.Has(SPath{Pvar: "last", Sel: "prv"}) {
		t.Errorf("n1 SPATH missing <last,prv>: %s", sp1)
	}
	sp2 := g.SPathOf(n2.ID)
	if !sp2.Has(SPath{Pvar: "x", Sel: "nxt"}) || !sp2.Has(SPath{Pvar: "last", Sel: "prv"}) {
		t.Errorf("n2 SPATH = %s", sp2)
	}
	sp3 := g.SPathOf(n3.ID)
	if !sp3.Has(SPath{Pvar: "last"}) || !sp3.Has(SPath{Pvar: "x", Sel: "nxt"}) {
		t.Errorf("n3 SPATH = %s", sp3)
	}
	// The bulk sets must agree with SPathOf.
	all := g.spathSets()
	for pos, id := range g.NodeIDs() {
		if !all[pos].Equal(g.SPathOf(id)) {
			t.Errorf("spathSets[%d] disagrees with SPathOf(n%d)", pos, id)
		}
	}
}

func TestHeapInDegree(t *testing.T) {
	g, n1, n2, _ := dlist(true)
	// n1 is referenced by n2.prv and n3.prv (heap) and by pvar x (not
	// counted).
	if d := g.HeapInDegree(n1.ID); d != 2 {
		t.Errorf("HeapInDegree(n1) = %d, want 2", d)
	}
	_ = n2
}

// TestPosOfMatchesLinearScan checks the node lookup against a linear
// scan for every ID from 0 to one past nextID, on graphs with and
// without holes in their ID range, on clones and on decoded graphs.
func TestPosOfMatchesLinearScan(t *testing.T) {
	holey := 0
	for seed := int64(0); seed < 300; seed++ {
		for gi, g := range kernelGraphs(seed) {
			if int(g.nextID) > len(g.ids) {
				holey++
			}
			for id := NodeID(0); id <= g.nextID+1; id++ {
				want := -1
				for i, x := range g.ids {
					if x == id {
						want = i
					}
				}
				if got := g.posOf(id); got != want {
					t.Fatalf("seed %d graph %d: posOf(%d) = %d, want %d (ids %v, nextID %d)",
						seed, gi, id, got, want, g.ids, g.nextID)
				}
			}
		}
	}
	if holey < 300 {
		t.Fatalf("only %d of 1500 fixture graphs have holes in their ID range", holey)
	}
}

// TestPosIndexMatchesLookups checks the digest path's position index
// against posOf for every ID from 0 to nextID, holes included, and
// against outRun for every position, on the same fixtures as
// TestPosOfMatchesLinearScan.
func TestPosIndexMatchesLookups(t *testing.T) {
	var x posIndex
	for seed := int64(0); seed < 300; seed++ {
		for gi, g := range kernelGraphs(seed) {
			x.build(g)
			if len(x.pos) != int(g.nextID)+1 {
				t.Fatalf("seed %d graph %d: %d index entries for nextID %d", seed, gi, len(x.pos), g.nextID)
			}
			for id := range x.pos {
				if got, want := int(x.pos[id]), g.posOf(NodeID(id)); got != want {
					t.Fatalf("seed %d graph %d: index has n%d at %d, posOf %d (ids %v)", seed, gi, id, got, want, g.ids)
				}
			}
			for p, id := range g.ids {
				if got, want := x.outRun(g, p), g.outRun(id); !slices.Equal(got, want) {
					t.Fatalf("seed %d graph %d: index out-run of n%d %v, outRun %v", seed, gi, id, got, want)
				}
			}
		}
	}
}

// TestPositionalSPathsMatchSPathOf checks the bulk SPATH sets, built on
// a mutable graph and cached by a frozen one, against SPathOf, the
// per-node reference built with Add. Has must find every path of a
// set, which fails on a set that is not sorted.
func TestPositionalSPathsMatchSPathOf(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		for gi, g := range kernelGraphs(seed) {
			forms := []*Graph{g}
			if !g.Frozen() {
				forms = append(forms, g.Clone().Freeze())
			}
			for _, f := range forms {
				sets := f.spathSets()
				if len(sets) != f.NumNodes() {
					t.Fatalf("seed %d graph %d: %d SPATH sets for %d nodes", seed, gi, len(sets), f.NumNodes())
				}
				for pos, id := range f.ids {
					if want := f.SPathOf(id); !sets[pos].Equal(want) {
						t.Fatalf("seed %d graph %d frozen=%v: SPATH(n%d) = %s, want %s",
							seed, gi, f.Frozen(), id, sets[pos], want)
					}
					for _, p := range sets[pos].paths {
						if !sets[pos].Has(p) {
							t.Fatalf("seed %d graph %d: SPATH(n%d) = %s does not find %s", seed, gi, id, sets[pos], p)
						}
					}
				}
			}
		}
	}
}
