package analysis_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

// TestOutStateMembersAreCompressFixpoints pins the contract the RSRSG
// reduction's join shortcut rests on (DESIGN.md §10): every member of a
// set is a COMPRESS fixpoint at the run's level, because every step
// function ends in Compress or returns its input, every join result is
// compressed, and the store restores members written at the same
// level. So compressing any out-state member again merges nothing.
func TestOutStateMembersAreCompressFixpoints(t *testing.T) {
	type fixture struct {
		name   string
		prog   func(t *testing.T) *ir.Program
		levels []rsg.Level
	}
	kernel := func(name string) func(t *testing.T) *ir.Program {
		return func(t *testing.T) *ir.Program { p, _ := compileKernel(t, name); return p }
	}
	all := []rsg.Level{rsg.L1, rsg.L2, rsg.L3}
	fixtures := []fixture{
		{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, all},
		{"slist", kernel("slist"), all},
		{"dlist", kernel("dlist"), all},
		{"btree", kernel("btree"), all},
		{"matvec", kernel("matvec"), all},
		{"barneshut", kernel("barneshut"), all},
	}
	if !testing.Short() {
		fixtures = append(fixtures, fixture{"matmat", kernel("matmat"), []rsg.Level{rsg.L1}})
	}
	for _, fx := range fixtures {
		for _, lvl := range fx.levels {
			t.Run(fmt.Sprintf("%s/%s", fx.name, lvl), func(t *testing.T) {
				res, err := analysis.Run(fx.prog(t), analysis.Options{Level: lvl})
				if err != nil {
					t.Fatal(err)
				}
				members := 0
				for id, set := range res.Out {
					set.ForEachEntry(func(g *rsg.Graph, d rsg.Digest) {
						members++
						if m := rsg.Compress(g.Clone(), lvl); m != 0 {
							t.Errorf("statement %d: member %s compresses with %d merges:\n%s", id, d, m, g)
						}
					})
				}
				if members == 0 {
					t.Fatal("no out-state members")
				}
			})
		}
	}
}
