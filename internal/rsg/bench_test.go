package rsg

import "testing"

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
