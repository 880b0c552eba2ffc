package rsrsg

import (
	"testing"

	"repro/internal/rsg"
)

// mkGraph builds a one-node graph with the pvar bindings given.
func mkGraph(typ string, pvars ...string) *rsg.Graph {
	g := rsg.NewGraph()
	n := rsg.NewNode(typ)
	n.Singleton = true
	g.AddNode(n)
	for _, p := range pvars {
		g.SetPvar(p, n.ID)
	}
	return g
}

func TestAddDeduplicates(t *testing.T) {
	s := New()
	if !s.Add(mkGraph("t", "x")) {
		t.Fatal("first add rejected")
	}
	if s.Add(mkGraph("t", "x")) {
		t.Fatal("identical graph not deduplicated")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Add(mkGraph("t", "y")) {
		t.Fatal("distinct graph rejected")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestReduceJoinsCompatible(t *testing.T) {
	// Two compatible graphs (same alias, same node class, different
	// link structure) must fuse.
	g1 := mkGraph("t", "x")
	g2 := mkGraph("t", "x")
	n2 := rsg.NewNode("t")
	g2.AddNode(n2)
	xt := g2.PvarTarget("x")
	xt.MarkDefiniteOut("s")
	n2.MarkDefiniteIn("s")
	g2.AddLink(xt.ID, "s", n2.ID)

	s := FromGraphs(rsg.L1, []*rsg.Graph{g1, g2}, Options{})
	if s.Len() != 1 {
		t.Fatalf("Reduce kept %d graphs, want 1 joined:\n%s", s.Len(), s)
	}
}

func TestReduceKeepsIncompatible(t *testing.T) {
	// Different alias relations never join.
	s := FromGraphs(rsg.L1, []*rsg.Graph{mkGraph("t", "x"), mkGraph("t", "y")}, Options{})
	if s.Len() != 2 {
		t.Fatalf("Reduce joined incompatible graphs: %d", s.Len())
	}
	// Same alias, different SHARED on the pvar target: kept apart.
	g1 := mkGraph("t", "x")
	g2 := mkGraph("t", "x")
	g2.PvarTarget("x").Shared = true
	s = FromGraphs(rsg.L1, []*rsg.Graph{g1, g2}, Options{})
	if s.Len() != 2 {
		t.Fatalf("Reduce joined graphs with mismatched SHARED: %d", s.Len())
	}
}

func TestReduceKeepsUnjoinableGraphs(t *testing.T) {
	// Same-alias graphs with different SHSEL sets are incompatible, so
	// reduction keeps all five: nothing caps a bucket's size.
	var graphs []*rsg.Graph
	sels := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 5; i++ {
		g := mkGraph("t", "x")
		n := g.PvarTarget("x")
		n.Shared = true
		n.ShSel.Add(sels[i])
		graphs = append(graphs, g)
	}
	s := FromGraphs(rsg.L1, graphs, Options{})
	if s.Len() != 5 {
		t.Fatalf("expected 5 unjoinable graphs, got %d", s.Len())
	}
}

func TestUnionAllSharesSignatures(t *testing.T) {
	a := New()
	a.Add(mkGraph("t", "x"))
	b := New()
	b.Add(mkGraph("t", "x"))
	b.Add(mkGraph("t", "y"))
	u := UnionAll(rsg.L1, []*Set{a, b, nil}, Options{})
	if u.Len() != 2 {
		t.Fatalf("UnionAll Len = %d, want 2", u.Len())
	}
}

func TestSignatureAndEqual(t *testing.T) {
	a := New()
	a.Add(mkGraph("t", "x"))
	a.Add(mkGraph("t", "y"))
	b := New()
	b.Add(mkGraph("t", "y"))
	b.Add(mkGraph("t", "x"))
	if !a.Equal(b) {
		t.Error("set equality must ignore insertion order")
	}
	b.Add(mkGraph("u", "z"))
	if a.Equal(b) {
		t.Error("different sets compare equal")
	}
}

func TestCloneSharesButIsIndependent(t *testing.T) {
	a := New()
	a.Add(mkGraph("t", "x"))
	c := a.Clone()
	c.Add(mkGraph("t", "y"))
	if a.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: a=%d c=%d", a.Len(), c.Len())
	}
}

func TestFilter(t *testing.T) {
	s := New()
	s.Add(mkGraph("t", "x"))
	s.Add(mkGraph("t", "x", "y"))
	f := s.Filter(func(g *rsg.Graph) bool { return g.PvarTarget("y") != nil })
	if f.Len() != 1 {
		t.Fatalf("Filter kept %d graphs", f.Len())
	}
	if f.Graphs()[0].PvarTarget("y") == nil {
		t.Error("wrong graph kept")
	}
}

func TestCountsAggregation(t *testing.T) {
	s := New()
	g := mkGraph("t", "x")
	n2 := rsg.NewNode("t")
	g.AddNode(n2)
	g.AddLink(g.PvarTarget("x").ID, "s", n2.ID)
	s.Add(g)
	s.Add(mkGraph("t", "y"))
	if s.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", s.NumNodes())
	}
	if s.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", s.NumLinks())
	}
}

func TestEntriesSortedByDigest(t *testing.T) {
	s := New()
	s.Add(mkGraph("t", "x"))
	s.Add(mkGraph("u", "y"))
	s.Add(mkGraph("t", "x", "y"))
	s.Add(mkGraph("v", "z"))
	var prev rsg.Digest
	first := true
	s.ForEachEntry(func(g *rsg.Graph, dig rsg.Digest) {
		if !first && prev.Compare(dig) >= 0 {
			t.Errorf("entries not strictly sorted: %s before %s", prev, dig)
		}
		prev, first = dig, false
	})
	// Graphs() must agree with the iteration order.
	gs := s.Graphs()
	i := 0
	s.ForEachEntry(func(g *rsg.Graph, dig rsg.Digest) {
		if gs[i] != g {
			t.Errorf("Graphs()[%d] disagrees with ForEachEntry order", i)
		}
		i++
	})
}

func TestSetDigestIncremental(t *testing.T) {
	// The incrementally-maintained set digest must equal the XOR of the
	// member digests recomputed from scratch, across adds and merges.
	s := New()
	graphs := []*rsg.Graph{mkGraph("t", "x"), mkGraph("u", "y"), mkGraph("t", "x", "y")}
	for _, g := range graphs {
		s.Add(g)
		var want rsg.Digest
		s.ForEachEntry(func(_ *rsg.Graph, dig rsg.Digest) {
			for i := range want {
				want[i] ^= dig[i]
			}
		})
		if s.Digest() != want {
			t.Fatalf("incremental digest %s != recomputed %s", s.Digest(), want)
		}
	}
	// Order independence.
	r := New()
	r.Add(graphs[2])
	r.Add(graphs[0])
	r.Add(graphs[1])
	if r.Digest() != s.Digest() {
		t.Fatal("set digest must be insertion-order independent")
	}
	if !r.Equal(s) {
		t.Fatal("Equal must hold for same members in different insertion order")
	}
}

func TestAddFreezesGraphs(t *testing.T) {
	s := New()
	g := mkGraph("t", "x")
	s.Add(g)
	for _, m := range s.Graphs() {
		if !m.Frozen() {
			t.Fatal("graphs inside a Set must be frozen")
		}
	}
	// The caller's instance is frozen too (or substituted by an interned
	// twin); either way the original must no longer be silently mutable
	// if it IS the stored instance.
	if s.Graphs()[0] == g && !g.Frozen() {
		t.Fatal("stored caller instance left mutable")
	}
}

func TestMergeDeltaMaintainsDigest(t *testing.T) {
	a := New()
	a.Add(mkGraph("t", "x"))
	b := New()
	b.Add(mkGraph("u", "y"))
	b.Add(mkGraph("t", "x"))
	if a.MergeDeltaBatch(rsg.L1, []*Set{b}, Options{}).Empty() {
		t.Fatal("MergeDeltaBatch must report change")
	}
	var want rsg.Digest
	a.ForEachEntry(func(_ *rsg.Graph, dig rsg.Digest) {
		for i := range want {
			want[i] ^= dig[i]
		}
	})
	if a.Digest() != want {
		t.Fatalf("digest drifted after MergeDeltaBatch: %s != %s", a.Digest(), want)
	}
	if !a.MergeDeltaBatch(rsg.L1, []*Set{b}, Options{}).Empty() {
		t.Fatal("re-merging the same set must be a no-op")
	}
}
