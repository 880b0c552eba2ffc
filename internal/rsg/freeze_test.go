package rsg

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// mustPanic runs f and reports an error unless it panics.
func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a frozen graph did not panic", op)
		}
	}()
	f()
}

func TestFrozenMutatorsPanic(t *testing.T) {
	g, n1, _, _ := dlist(true)
	g.Freeze()

	mustPanic(t, "AddNode", func() { g.AddNode(NewNode("elem")) })
	mustPanic(t, "SetPvar", func() { g.SetPvar("y", n1.ID) })
	mustPanic(t, "ClearPvar", func() { g.ClearPvar("x") })
	mustPanic(t, "AddLink", func() { g.AddLink(n1.ID, "prv", n1.ID) })
	mustPanic(t, "RemoveLink", func() { g.RemoveLink(n1.ID, "nxt", n1.ID) })
	mustPanic(t, "RemoveNode", func() { g.RemoveNode(n1.ID) })
}

func TestFreezeIdempotent(t *testing.T) {
	g, _, _, _ := dlist(true)
	g.Freeze()
	d := g.Digest()
	g.Freeze() // second freeze is a no-op
	if g.Digest() != d {
		t.Fatal("digest changed across repeated Freeze")
	}
	if !g.Frozen() {
		t.Fatal("Frozen() is false after Freeze")
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	g, n1, _, _ := dlist(true)
	g.Freeze()
	c := g.Clone()
	if c.Frozen() {
		t.Fatal("clone of a frozen graph must be mutable")
	}
	// All mutators must work on the clone and leave the original intact.
	c.SetPvar("y", n1.ID)
	c.AddLink(n1.ID, "prv", n1.ID)
	c.RemoveLink(n1.ID, "prv", n1.ID)
	c.ClearPvar("y")
	if Signature(c) != Signature(g) {
		t.Fatal("round-trip mutations on the clone should restore the signature")
	}
}

// TestFrozenViewsMatchUnfrozen checks that every view of a frozen
// graph agrees with the live computation on the mutable graph it was
// frozen from.
func TestFrozenViewsMatchUnfrozen(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		for _, k := range kernelGraphs(seed) {
			g := k.Clone()
			sig := Signature(g)
			alias := AliasKey(g)
			ids := append([]NodeID{}, g.NodeIDs()...)
			pvars := g.Pvars()
			links := g.Links()

			f := g.Clone()
			f.Freeze()
			if Signature(f) != sig || AliasKey(f) != alias {
				return false
			}
			if !slices.Equal(f.NodeIDs(), ids) || !slices.Equal(f.Pvars(), pvars) || !slices.Equal(f.Links(), links) {
				return false
			}
			for _, id := range ids {
				sels := g.OutSelectors(id)
				if len(sels) != len(f.OutSelectors(id)) {
					return false
				}
				for _, sel := range sels {
					if len(g.Targets(id, sel)) != len(f.Targets(id, sel)) {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestDigestEquivalentToSignature is the randomized property test: for
// random graph pairs, equal digests <=> Signature(a) == Signature(b).
func TestDigestEquivalentToSignature(t *testing.T) {
	err := quick.Check(func(seedA, seedB int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seedA)))
		b := randomGraph(rand.New(rand.NewSource(seedB)))
		return (a.Digest() == b.Digest()) == (Signature(a) == Signature(b))
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
	// Equal-by-construction pairs, including across freezing.
	err = quick.Check(func(seed int64) bool {
		a := randomGraph(rand.New(rand.NewSource(seed)))
		b := a.Clone()
		b.Freeze()
		return a.Digest() == b.Digest() && Signature(a) == Signature(b)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestDigestMemoizedOnFrozen(t *testing.T) {
	// A pvar no other test uses, and a collection that empties the slot
	// of an earlier run of this test, so the intern below misses.
	g := buildChain("memoized", 3)
	runtime.GC()
	var rec RunStats
	g = InternStats(g, &rec)
	g.DigestStats(&rec)
	g.DigestStats(&rec)
	c := rec.Snapshot()
	if c.InternMisses != 1 || c.GraphsFrozen != 1 {
		t.Fatalf("InternMisses = %d, GraphsFrozen = %d, want 1 and 1", c.InternMisses, c.GraphsFrozen)
	}
	if c.DigestsComputed != 1 {
		t.Fatalf("DigestsComputed = %d, want 1 (before the freeze only)", c.DigestsComputed)
	}
	if c.DigestCacheHits != 2 {
		t.Fatalf("DigestCacheHits = %d, want 2", c.DigestCacheHits)
	}
}

func TestInternReturnsCanonicalInstance(t *testing.T) {
	a, _, _, _ := dlist(true)
	b, _, _, _ := dlist(true)
	ia := Intern(a)
	ib := Intern(b)
	if ia != ib {
		t.Fatal("interning two structurally identical graphs must return one instance")
	}
	if !ia.Frozen() {
		t.Fatal("interned graphs must be frozen")
	}
	c, _, _, _ := slist()
	if Intern(c) == ia {
		t.Fatal("structurally different graphs must not intern to the same instance")
	}
}

// internedLive reports whether the intern table holds a live canonical
// instance for d.
func internedLive(d Digest) bool {
	s := internShard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab[d].Value() != nil
}

// internedSlot reports whether the intern table has an entry for d,
// live or not yet released.
func internedSlot(d Digest) bool {
	s := internShard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tab[d]
	return ok
}

// internChains interns n chains that differ in length, checks that
// each is the live canonical instance while it is held, and returns
// their digests only, so nothing keeps the instances alive afterwards.
func internChains(t *testing.T, n int) []Digest {
	t.Helper()
	gs := make([]*Graph, n)
	for i := range gs {
		gs[i] = Intern(buildChain("released", i+1))
	}
	digs := make([]Digest, n)
	for i, g := range gs {
		digs[i] = g.Digest()
		if !internedLive(digs[i]) {
			t.Fatalf("chain %d: not the live canonical instance right after Intern", i)
		}
	}
	return digs
}

// TestInternReleasesCollected checks that the intern table does not own
// its graphs: once nothing else holds the canonical instances, a
// collection empties their slots and the table returns to its size
// before they were interned. Re-interning one of those shapes makes a
// fresh canonical instance with the same digest and counts a miss.
func TestInternReleasesCollected(t *testing.T) {
	base := InternedGraphs()
	digs := internChains(t, 64)
	// Cleanups run asynchronously after the collection that frees their
	// graphs, so poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		left := 0
		for _, d := range digs {
			if internedSlot(d) {
				left++
			}
		}
		if left == 0 && InternedGraphs() <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after dropping the graphs: %d of %d entries left, table %d > %d before",
				left, len(digs), InternedGraphs(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := &RunStats{}
	g := InternStats(buildChain("released", 1), rec)
	if !g.Frozen() || g.Digest() != digs[0] {
		t.Fatalf("re-interned chain: frozen %v, digest %s, want %s", g.Frozen(), g.Digest(), digs[0])
	}
	if st := rec.Snapshot(); st.InternMisses != 1 || st.InternHits != 0 {
		t.Fatalf("re-intern after collection: %d misses, %d hits, want 1 and 0", st.InternMisses, st.InternHits)
	}
	if !internedLive(digs[0]) {
		t.Fatal("re-interned chain is not the live canonical instance")
	}
	runtime.KeepAlive(g)
}

// twinGraph returns a pvar-anchored root with twins identical targets
// through selector s: with two or more, the twins tie in the canonical
// order.
func twinGraph(twins int) *Graph {
	g := NewGraph()
	r := g.AddNode(NewNode("t"))
	r.Singleton = true
	r.MarkDefiniteOut("s")
	g.SetPvar("x", r.ID)
	for ; twins > 0; twins-- {
		n := g.AddNode(NewNode("t"))
		n.Singleton = true
		n.MarkDefiniteIn("s")
		g.AddLink(r.ID, "s", n.ID)
	}
	return g
}

// TestFreezePinsTieFreedom checks that a freeze records whether the
// canonical order fell back to positions, and that the codec's freeze
// records the same. TestJoinSubsumedMatchesFullJoin covers the join
// shortcut's use of the bit.
func TestFreezePinsTieFreedom(t *testing.T) {
	d, _, _, _ := dlist(true)
	for _, c := range []struct {
		name string
		g    *Graph
		want bool
	}{
		{"dlist", d, true},
		{"one twin", twinGraph(1), true},
		{"two twins", twinGraph(2), false},
	} {
		c.g.Freeze()
		if c.g.tieFree != c.want {
			t.Errorf("%s: tie-free %v, want %v", c.name, c.g.tieFree, c.want)
		}
		dec, err := DecodeFrozen(EncodeFrozen(c.g))
		if err != nil {
			t.Fatal(err)
		}
		if dec.tieFree != c.want {
			t.Errorf("%s decoded: tie-free %v, want %v", c.name, dec.tieFree, c.want)
		}
	}
}
