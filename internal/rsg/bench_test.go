package rsg

import (
	"os"
	"path/filepath"
	"testing"
)

// Micro-benchmarks of the core graph operations; the end-to-end
// Table 1 and figure benchmarks live in the repository root.

func BenchmarkSignature(b *testing.B) {
	g, _, _, _ := dlist(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Signature(g)
	}
}

// BenchmarkDigest measures computing the binary digest of a mutable
// graph (hashes the signature bytes on every call, no string built).
func BenchmarkDigest(b *testing.B) {
	g, _, _, _ := dlist(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Digest()
	}
}

// BenchmarkDigestFrozen measures the frozen fast path: the digest is
// memoized at freeze time, so this is a field read.
func BenchmarkDigestFrozen(b *testing.B) {
	g, _, _, _ := dlist(true)
	g.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Digest()
	}
}

func BenchmarkClone(b *testing.B) {
	g, _, _, _ := dlist(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Clone()
	}
}

// BenchmarkFreeze measures Clone + Freeze, which every graph that
// becomes a canonical instance pays once: the digest, the alias key and
// the positional SPATH sets.
func BenchmarkFreeze(b *testing.B) {
	g, _, _, _ := dlist(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Clone().Freeze()
	}
}

func BenchmarkCompressChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := chain(16)
		b.StartTimer()
		Compress(g, L1)
	}
}

func BenchmarkDivide(b *testing.B) {
	g, _, _, _ := dlist(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Divide(g, "x", "nxt")
	}
}

func BenchmarkPrune(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, n1, _, _ := dlist(true)
		divs := Divide(g, "x", "nxt")
		branch := divs[0].G.Clone()
		Materialize(branch, n1.ID, "nxt")
		b.StartTimer()
		Prune(branch)
	}
}

func BenchmarkJoin(b *testing.B) {
	g1, _, _, _ := dlist(true)
	g2, _, _, _ := dlist(true)
	g2.Node(2).MarkPossibleOut("aux")
	if !Compatible(L1, g1, g2) {
		b.Fatal("fixture graphs must be compatible")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Join(L1, g1, g2)
	}
}

// wideGraphs returns two Compatible graphs of about 100 links each:
// out-state graphs of the barneshut kernel's L1 fixed point (22 nodes
// and 103 links, 23 nodes and 111 links), stored with EncodeFrozen.
// The chain and list fixtures are too small to show per-link costs.
func wideGraphs(b *testing.B) (*Graph, *Graph) {
	load := func(name string) *Graph {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			b.Fatal(err)
		}
		g, err := DecodeFrozen(raw)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	g1, g2 := load("barneshut_wide_a.rsg"), load("barneshut_wide_b.rsg")
	if !Compatible(L1, g1, g2) {
		b.Fatal("wide fixture graphs must be compatible")
	}
	return g1, g2
}

// BenchmarkJoinWide joins the two wide graphs: every node of the first
// matches one of the second, which keeps one node of its own.
func BenchmarkJoinWide(b *testing.B) {
	g1, g2 := wideGraphs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Join(L1, g1, g2)
	}
}

// BenchmarkJoinSubsumed runs the RSRSG reduction's join on the wide
// graphs. "absorbed" joins the first wide graph with itself, which the
// shortcut answers with the operand; "built" joins the BenchmarkJoinWide
// pair, where the second graph keeps a node of its own, so the test
// fails and JoinSubsumed builds the join and compresses it.
func BenchmarkJoinSubsumed(b *testing.B) {
	g1, g2 := wideGraphs(b)
	for _, c := range []struct {
		name   string
		g1, g2 *Graph
		keep   *Graph
	}{
		{"absorbed", g1, g1, g1},
		{"built", g1, g2, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, keep := JoinSubsumed(L1, c.g1, c.g2); keep != c.keep {
				b.Fatalf("JoinSubsumed kept %p, want %p", keep, c.keep)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = JoinSubsumed(L1, c.g1, c.g2)
			}
		})
	}
}

// BenchmarkCompressWide compresses the larger wide graph with pvar ch
// cleared: a round with one merge, then the round that merges nothing.
func BenchmarkCompressWide(b *testing.B) {
	_, g := wideGraphs(b)
	in := g.Clone()
	in.ClearPvar("ch")
	if m := Compress(in.Clone(), L1); m != 1 {
		b.Fatalf("fixture compresses with %d merges, want 1", m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := in.Clone()
		b.StartTimer()
		Compress(c, L1)
	}
}

func BenchmarkMaterialize(b *testing.B) {
	g, n1, n2, _ := dlist(true)
	divs := Divide(g, "x", "nxt")
	var branch *Graph
	for _, d := range divs {
		if d.Target == n2.ID {
			branch = d.G
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := branch.Clone()
		_ = Materialize(c, n1.ID, "nxt")
	}
}
