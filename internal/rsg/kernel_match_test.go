package rsg_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/rsg"
)

// The kernel reference tests run the production COMPRESS and JOIN
// against the reference copies in kernel_reference_test.go on two
// inputs: the small random graphs of kernelGraphs (holes in the ID
// range, codec round trips), and kernel-sized graphs, the distinct
// graphs of every statement's out-state at the barneshut and matvec
// fixed points. They live in the external test package so that they
// can run the analysis.

var levels = []rsg.Level{rsg.L1, rsg.L2, rsg.L3}

// kernelPairCap bounds the pairs taken per alias key, so a big alias
// bucket does not make the test quadratic.
const kernelPairCap = 8

// graphSource is one named input: a list of graphs to join pairwise
// and compress.
type graphSource struct {
	name   string
	graphs func(t *testing.T, lvl rsg.Level) []*rsg.Graph
}

func graphSources() []graphSource {
	srcs := []graphSource{{"random", func(*testing.T, rsg.Level) []*rsg.Graph { return randomGraphs() }}}
	for _, k := range []string{"barneshut", "matvec"} {
		srcs = append(srcs, graphSource{k, func(t *testing.T, lvl rsg.Level) []*rsg.Graph { return outStateGraphs(t, k, lvl) }})
	}
	return srcs
}

// randomGraphs returns the kernelGraphs of 64 seeds.
func randomGraphs() []*rsg.Graph {
	var gs []*rsg.Graph
	for seed := int64(0); seed < 64; seed++ {
		gs = append(gs, rsg.KernelGraphs(seed)...)
	}
	return gs
}

type outStateKey struct {
	kernel string
	lvl    rsg.Level
}

var (
	outStateMu    sync.Mutex
	outStateCache = map[outStateKey][]*rsg.Graph{}
)

// outStateGraphs returns the distinct graphs of every statement's
// out-state after running kernel at lvl, ordered by digest. -short
// bounds the run at 150 visits, whose partial fixed point already holds
// graphs of kernel size.
func outStateGraphs(t *testing.T, kernel string, lvl rsg.Level) []*rsg.Graph {
	outStateMu.Lock()
	defer outStateMu.Unlock()
	key := outStateKey{kernel, lvl}
	if gs, ok := outStateCache[key]; ok {
		return gs
	}
	prog, err := benchprog.ByName(kernel).Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := analysis.Options{Level: lvl}
	if testing.Short() {
		opts.MaxVisits = 150
	}
	res, err := analysis.Run(prog, opts)
	if err != nil && opts.MaxVisits == 0 {
		t.Fatalf("%s %s: %v", kernel, lvl, err)
	}
	seen := map[rsg.Digest]*rsg.Graph{}
	for _, set := range res.Out {
		set.ForEachEntry(func(g *rsg.Graph, d rsg.Digest) { seen[d] = g })
	}
	gs := make([]*rsg.Graph, 0, len(seen))
	for _, g := range seen {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Digest().Compare(gs[j].Digest()) < 0 })
	outStateCache[key] = gs
	return gs
}

// aliasPairs returns each graph paired with itself, and consecutive
// graphs of equal alias key, at most kernelPairCap pairs per key.
func aliasPairs(gs []*rsg.Graph) [][2]*rsg.Graph {
	var pairs [][2]*rsg.Graph
	last := map[string]*rsg.Graph{}
	taken := map[string]int{}
	for _, g := range gs {
		pairs = append(pairs, [2]*rsg.Graph{g, g})
		k := rsg.AliasKey(g)
		if prev, ok := last[k]; ok && taken[k] < kernelPairCap {
			pairs = append(pairs, [2]*rsg.Graph{prev, g}, [2]*rsg.Graph{g, prev})
			taken[k]++
		}
		last[k] = g
	}
	return pairs
}

func TestJoinMatchesReference(t *testing.T) {
	for _, src := range graphSources() {
		for _, lvl := range levels {
			t.Run(fmt.Sprintf("%s/%s", src.name, lvl), func(t *testing.T) {
				for i, p := range aliasPairs(src.graphs(t, lvl)) {
					if _, d := rsg.JoinMatchesReference(lvl, p[0], p[1]); d != "" {
						t.Fatalf("pair %d: Join differs from the reference: %s\ng1 %s\ng2 %s", i, d, p[0], p[1])
					}
				}
			})
		}
	}
}

// TestCompressMatchesReference compresses every input graph; each
// input with one pvar cleared, before and after garbage collection (the
// input of "x = NULL", and pvar-less components); and every Join result
// of an alias pair before its compression. Out-states are compressed
// already, so at kernel size the merges come from the cleared pvars.
func TestCompressMatchesReference(t *testing.T) {
	for _, src := range graphSources() {
		for _, lvl := range levels {
			t.Run(fmt.Sprintf("%s/%s", src.name, lvl), func(t *testing.T) {
				gs := src.graphs(t, lvl)
				for i, g := range gs {
					if d := rsg.CompressMatchesReference(lvl, g); d != "" {
						t.Fatalf("graph %d: Compress differs from the reference: %s\n%s", i, d, g)
					}
					for _, p := range g.Pvars() {
						c := g.Clone()
						c.ClearPvar(p)
						if d := rsg.CompressMatchesReference(lvl, c); d != "" {
							t.Fatalf("graph %d without %s: Compress differs from the reference: %s\n%s", i, p, d, c)
						}
						c.CollectGarbage()
						if d := rsg.CompressMatchesReference(lvl, c); d != "" {
							t.Fatalf("graph %d without %s, collected: Compress differs from the reference: %s\n%s", i, p, d, c)
						}
					}
				}
				for i, p := range aliasPairs(gs) {
					j, _ := rsg.JoinMatchesReference(lvl, p[0], p[1])
					if d := rsg.CompressMatchesReference(lvl, j); d != "" {
						t.Fatalf("join of pair %d: Compress differs from the reference: %s\n%s", i, d, j)
					}
				}
			})
		}
	}
}

// TestJoinSubsumedMatchesFullJoin holds JoinSubsumed's shortcut to the
// full path: whenever it names an operand instead of building, that
// operand's digest is the digest of Compress(Join(g1, g2)), and
// otherwise it builds that graph. The pairs are every COMPATIBLE pair
// of distinct barneshut and matvec out-state graphs in both orders; the
// COMPATIBLE pairs of each seed's kernelGraphs, compressed and frozen;
// and absorbFixtures. The shortcut must fire at least 100 times for
// each operand.
func TestJoinSubsumedMatchesFullJoin(t *testing.T) {
	var named [3]int // built, g1 named, g2 named
	check := func(t *testing.T, lvl rsg.Level, what string, g1, g2 *rsg.Graph) {
		t.Helper()
		joined, keep := rsg.JoinSubsumed(lvl, g1, g2)
		full := rsg.Join(lvl, g1, g2)
		rsg.Compress(full, lvl)
		got := joined
		switch keep {
		case nil:
			named[0]++
		case g1:
			named[1]++
			got = g1
		case g2:
			named[2]++
			got = g2
		default:
			t.Fatalf("%s: JoinSubsumed kept a graph that is neither operand", what)
		}
		if got.Digest() != full.Digest() {
			t.Fatalf("%s: JoinSubsumed (kept operand %v) differs from Compress(Join)\ng1 %s\ng2 %s\njoin %s",
				what, keep != nil, g1, g2, full)
		}
	}
	for _, src := range graphSources() {
		for _, lvl := range levels {
			t.Run(fmt.Sprintf("%s/%s", src.name, lvl), func(t *testing.T) {
				if src.name == "random" {
					for seed := int64(0); seed < 64; seed++ {
						var gs []*rsg.Graph
						for _, g := range rsg.KernelGraphs(seed) {
							c := g.Clone()
							rsg.Compress(c, lvl)
							gs = append(gs, c.Freeze())
						}
						for i, g1 := range gs {
							for j, g2 := range gs {
								if i != j && rsg.Compatible(lvl, g1, g2) {
									check(t, lvl, fmt.Sprintf("seed %d graphs %d, %d", seed, i, j), g1, g2)
								}
							}
						}
					}
					return
				}
				buckets := map[string][]*rsg.Graph{}
				for _, g := range src.graphs(t, lvl) {
					k := rsg.AliasKey(g)
					buckets[k] = append(buckets[k], g)
				}
				for k, gs := range buckets {
					for i, g1 := range gs {
						for j, g2 := range gs {
							if i != j && rsg.Compatible(lvl, g1, g2) {
								check(t, lvl, fmt.Sprintf("alias %q graphs %d, %d", k, i, j), g1, g2)
							}
						}
					}
				}
			})
		}
	}
	for _, fx := range absorbFixtures() {
		check(t, rsg.L1, fx.name, fx.g1, fx.g2)
	}
	t.Logf("built %d, g1 named %d, g2 named %d", named[0], named[1], named[2])
	if named[1] < 100 || named[2] < 100 {
		t.Fatalf("the shortcut named g1 %d and g2 %d times, want at least 100 each", named[1], named[2])
	}
}

// absorbFixtures returns hand-built pairs for the two conditions of the
// shortcut that no COMPATIBLE pair of COMPRESS fixpoints needs:
//
//   - "tie": g2 is g1 plus a twin of g1's second node, so the join is
//     isomorphic to g2 and meets every other condition for g2 to absorb
//     g1; but the twins tie in g2's canonical order, and compressing the
//     join merges them.
//   - "pvar": g1 and g2 are one node with pvar z, and g2 also has pvar
//     x on it. Every node of g2 is matched and merges into g1's, but
//     the join has x, so g1 does not absorb g2 (g2 absorbs g1).
func absorbFixtures() []struct {
	name   string
	g1, g2 *rsg.Graph
} {
	node := func(g *rsg.Graph, in, out string) *rsg.Node {
		n := g.AddNode(rsg.NewNode("fx"))
		n.Singleton = true
		if in != "" {
			n.MarkDefiniteIn(in)
		}
		if out != "" {
			n.MarkDefiniteOut(out)
		}
		return n
	}
	tied := func(twins int) *rsg.Graph {
		g := rsg.NewGraph()
		r := node(g, "", "s")
		g.SetPvar("x", r.ID)
		for ; twins > 0; twins-- {
			g.AddLink(r.ID, "s", node(g, "s", "").ID)
		}
		return g.Freeze()
	}
	single := func(pvars ...string) *rsg.Graph {
		g := rsg.NewGraph()
		n := node(g, "", "")
		for _, p := range pvars {
			g.SetPvar(p, n.ID)
		}
		return g.Freeze()
	}
	return []struct {
		name   string
		g1, g2 *rsg.Graph
	}{
		{"tie", tied(1), tied(2)},
		{"pvar", single("z"), single("x", "z")},
	}
}
