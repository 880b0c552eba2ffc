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
	sort.Slice(gs, func(i, j int) bool { return gs[i].Digest().Less(gs[j].Digest()) })
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
