package rsg

import (
	"runtime"
	"testing"
)

// Allocation regression guards for the hot kernels on the flat
// encoding. The ceilings are ~2x the measured counts at the time they
// were recorded — loose enough to survive toolchain drift, tight
// enough that reintroducing a per-edge or per-node map blows through
// them immediately.

// raceEnabled is set under the race detector (race_flag_test.go); the
// guards of pooled kernels skip then.
var raceEnabled = false

// skipUnderRace skips a guard whose kernel draws scratch from a
// sync.Pool.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
}

// midGraph returns a frozen chain of 24 singleton nodes with a pvar on
// the head: big enough that per-node costs dominate the fixed ones,
// small enough to keep the guards fast.
func midGraph() *Graph {
	g, _ := chain(24)
	g.Freeze()
	return g
}

func TestCloneAllocCeiling(t *testing.T) {
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		_ = g.Clone()
	})
	// Measured ~10 allocs/op: the Graph shell plus one backing array
	// per flat slice (nodes, ids, index, outE, inE, pvars...).
	if avg > 20 {
		t.Fatalf("Clone of a frozen %d-node graph: %.1f allocs/op, ceiling 20", g.NumNodes(), avg)
	}
}

func TestDigestAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		_ = g.Clone().Digest()
	})
	// Measured 6 allocs/op, all of them Clone's: the canonical encoder
	// works in pooled scratch, tie-break keys included.
	if avg > 12 {
		t.Fatalf("Clone+Digest of a frozen %d-node graph: %.1f allocs/op, ceiling 12", g.NumNodes(), avg)
	}
}

func TestFreezeAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		g.Clone().Freeze()
	})
	// Measured 11 allocs/op: Clone, the alias key and the positional
	// SPATH sets.
	if avg > 22 {
		t.Fatalf("Clone+Freeze of a frozen %d-node graph: %.1f allocs/op, ceiling 22", g.NumNodes(), avg)
	}
}

func TestSPathAllocCeiling(t *testing.T) {
	g, nodes := chain(24)
	for i, p := range []string{"a", "b", "c", "d", "e", "f"} {
		g.SetPvar(p, nodes[4*i].ID)
	}
	avg := testing.AllocsPerRun(100, func() {
		_ = g.spathSets()
	})
	// Measured 3 allocs/op: the sets, the one array behind all of them
	// and the per-node counts. Inserting path by path cost one per path.
	if avg > 6 {
		t.Fatalf("SPATH sets of a %d-node graph with %d pvars: %.1f allocs/op, ceiling 6", g.NumNodes(), len(g.pl), avg)
	}
}

func TestCompressAllocCeiling(t *testing.T) {
	g := midGraph()
	avg := testing.AllocsPerRun(100, func() {
		c := g.Clone()
		Compress(c, L1)
	})
	// Clone + full chain-middle summarization into one shared node.
	if avg > 260 {
		t.Fatalf("Clone+Compress of a frozen %d-node graph: %.1f allocs/op, ceiling 260", g.NumNodes(), avg)
	}
}

func TestJoinAllocCeiling(t *testing.T) {
	g1 := midGraph()
	g2 := midGraph()
	if !Compatible(L1, g1, g2) {
		t.Fatal("fixture graphs must be compatible")
	}
	avg := testing.AllocsPerRun(100, func() {
		_ = Join(L1, g1, g2)
	})
	// Measured 34 allocs/op: one per merged node, plus the matching
	// tables and the presized result.
	if avg > 70 {
		t.Fatalf("Join of two frozen %d-node graphs: %.1f allocs/op, ceiling 70", g1.NumNodes(), avg)
	}
}

func TestInternMissAllocCeiling(t *testing.T) {
	skipUnderRace(t)
	const runs = 100
	// Chains of distinct lengths, so every intern is a miss. A collection
	// first empties the slots of any earlier run of this test.
	gs := make([]*Graph, runs+1)
	for i := range gs {
		gs[i] = buildChain("miss", 24+i)
	}
	runtime.GC()
	before := ReadCacheStats()
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		gs[i] = Intern(gs[i])
		i++
	})
	if d := ReadCacheStats().Sub(before); d.InternMisses != runs+1 {
		t.Fatalf("%d of %d interns missed", d.InternMisses, runs+1)
	}
	// Measured 16 allocs/op: the freeze (alias key and SPATH sets), the
	// weak handle and cleanup (3 of the 16) and the amortized growth of
	// the shard maps.
	if avg > 32 {
		t.Fatalf("Intern miss of a %d-node graph: %.1f allocs/op, ceiling 32", gs[0].NumNodes(), avg)
	}
}
