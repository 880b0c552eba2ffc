package rsg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based invariants of the graph operations, checked over
// randomized inputs with testing/quick.

// TestPropertyCompressIdempotent: COMPRESS reaches a fixed point — a
// second application never merges again, at every level.
func TestPropertyCompressIdempotent(t *testing.T) {
	for _, lvl := range []Level{L1, L2, L3} {
		lvl := lvl
		err := quick.Check(func(seed int64) bool {
			g := randomGraph(rand.New(rand.NewSource(seed)))
			Compress(g, lvl)
			return Compress(g, lvl) == 0
		}, &quick.Config{MaxCount: 120})
		if err != nil {
			t.Errorf("%s: %v", lvl, err)
		}
	}
}

// TestPropertyCompressPreservesPvars: summarization may fuse nodes but
// never loses a pointer variable's reference.
func TestPropertyCompressPreservesPvars(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		before := g.Pvars()
		Compress(g, L1)
		after := g.Pvars()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyCompressNeverGrows: node and link counts never increase.
func TestPropertyCompressNeverGrows(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		n0, l0 := g.NumNodes(), g.NumLinks()
		Compress(g, L1)
		return g.NumNodes() <= n0 && g.NumLinks() <= l0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyJoinSymmetricSignature: joining two compatible graphs in
// either order yields signature-identical results after compression
// (the union is a set-level operation; operand order is an artifact).
func TestPropertyJoinSymmetricSignature(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r)
		g2 := randomGraph(r)
		if !Compatible(L1, g1, g2) {
			return true // vacuous
		}
		a := Join(L1, g1, g2)
		Compress(a, L1)
		b := Join(L1, g2, g1)
		Compress(b, L1)
		// Both must at least agree on the alias relation and sizes;
		// exact signature equality can differ when the greedy matching
		// picks different non-pvar pairs, so compare the observable
		// alias structure and pvar-node properties.
		if AliasKey(a) != AliasKey(b) {
			return false
		}
		for _, p := range a.Pvars() {
			na, nb := a.PvarTarget(p), b.PvarTarget(p)
			if na.Shared != nb.Shared || !na.ShSel.Equal(nb.ShSel) ||
				!na.SelIn.Equal(nb.SelIn) || !na.SelOut.Equal(nb.SelOut) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyJoinPreservesLinksOfBoth: every link of either operand
// survives the join (translated through the node map) — the paper's
// N/PL/NL union equations.
func TestPropertyJoinPreservesLinkCount(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r)
		g2 := randomGraph(r)
		if !Compatible(L1, g1, g2) {
			return true
		}
		j := Join(L1, g1, g2)
		// The join can only deduplicate links (when both operands map a
		// link onto the same merged pair), never invent or drop beyond
		// the operands' union.
		if j.NumLinks() > g1.NumLinks()+g2.NumLinks() {
			return false
		}
		if j.NumLinks() < g1.NumLinks() && j.NumLinks() < g2.NumLinks() {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyPruneIdempotent: once PRUNE accepts a graph, a second
// pass removes nothing.
func TestPropertyPruneIdempotent(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		if !Prune(g) {
			return true // infeasible random graph: nothing to check
		}
		sig := Signature(g)
		if !Prune(g) {
			return false
		}
		return Signature(g) == sig
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyDivideBranchesAreSubgraphs: every division branch only
// removes links (never adds nodes or links) relative to the input.
func TestPropertyDivideBranchesAreSubgraphs(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		if g.PvarTarget("p") == nil {
			return true
		}
		for _, d := range Divide(g, "p", "s") {
			for _, l := range d.G.Links() {
				if !g.HasLink(l.Src, l.Sel, l.Dst) {
					return false
				}
			}
			if d.G.NumNodes() > g.NumNodes() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyJoinKeepsAliasKey pins the invariant the RSRSG merge
// layer rests on: joining two compatible graphs of one alias bucket
// and compressing the result never leaves the bucket. rsrsg merges a
// bucket's delta without re-keying join results, so a join that changed
// the alias key would file a graph under the wrong bucket. The
// invariant lives in CSPath: C_SPATH0 only matches nodes with equal
// zero-length paths, so JOIN merges exactly the nodes the same pvars
// reference, and COMPRESS never merges pvar-referenced nodes.
func TestPropertyJoinKeepsAliasKey(t *testing.T) {
	pairs := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		graphs := make([]*Graph, 8)
		for i := range graphs {
			if i%2 == 0 {
				graphs[i] = randomGraph(r)
			} else {
				graphs[i] = buildRandomGraph(r)
			}
		}
		for _, lvl := range []Level{L1, L2, L3} {
			// Both operand orders: Join's node matching is not symmetric.
			for i, a := range graphs {
				for k, b := range graphs {
					key := AliasKey(a)
					if k == i || AliasKey(b) != key || !CompatibleSP(lvl, a, b) {
						continue
					}
					pairs++
					j := Join(lvl, a, b)
					Compress(j, lvl)
					if got := AliasKey(j); got != key {
						t.Fatalf("seed %d %s: join of compatible graphs moved alias key %q to %q", seed, lvl, key, got)
					}
				}
			}
		}
	}
	if pairs < 1500 {
		t.Fatalf("only %d compatible pairs: the generators no longer exercise the property", pairs)
	}
	t.Logf("%d compatible pairs", pairs)
}
