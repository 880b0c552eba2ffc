package analysis_test

// Property test tying the WTO loop forest to the CFG's depth-first
// structure: on the reducible CFGs the mini-C dialect produces, a
// reverse postorder and the WTO must classify exactly the same edges as
// back edges, and every back edge must target the head of a WTO
// component containing its source — the invariant that lets the
// recursive strategy confine iteration to components. Runs over every
// bench kernel and 200 generator-fuzzed programs.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/concrete"
	"repro/internal/ir"
)

// referenceRPO is the reference order: a depth-first search from
// the entry in successor order, then from any statement it missed.
func referenceRPO(prog *ir.Program) []int {
	seen := make([]bool, len(prog.Stmts))
	var post []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range prog.Stmts[id].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, id)
	}
	dfs(prog.Entry)
	for id := range prog.Stmts {
		if !seen[id] {
			dfs(id)
		}
	}
	slices.Reverse(post)
	return post
}

func checkWTOAgreesWithRPO(t *testing.T, name string, prog *ir.Program) {
	t.Helper()
	rpo := referenceRPO(prog)
	idx := make([]int, len(prog.Stmts))
	for i, id := range rpo {
		idx[id] = i
	}
	w := prog.WTO()
	for _, s := range prog.Stmts {
		for _, succ := range s.Succs {
			rpoBack := idx[succ] <= idx[s.ID]
			wtoBack := w.Pos[succ] <= w.Pos[s.ID]
			if rpoBack != wtoBack {
				t.Errorf("%s: edge %d->%d is rpo-back=%v but wto-back=%v (reducible CFGs must agree)",
					name, s.ID, succ, rpoBack, wtoBack)
				continue
			}
			if !wtoBack {
				continue
			}
			c := w.HeadComp[w.Pos[succ]]
			if c < 0 {
				t.Errorf("%s: back edge %d->%d targets a non-head", name, s.ID, succ)
				continue
			}
			if !w.InComponent(c, w.Pos[s.ID]) {
				t.Errorf("%s: back edge %d->%d escapes its target's component [%d,%d)",
					name, s.ID, succ, w.Comps[c].Start, w.Comps[c].End)
			}
		}
	}
}

func TestWTOAgreesWithRPO(t *testing.T) {
	for _, k := range benchprog.All() {
		prog, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkWTOAgreesWithRPO(t, k.Name, prog)
	}
	checkWTOAgreesWithRPO(t, "fig1", compileSrc(t, fig1PipelineSource))

	// 200 fuzzed programs from the soundness fuzzer's generators
	// (fixed seed: this is a property sweep, not a rotating fuzz job).
	r := rand.New(rand.NewSource(94))
	n := 200
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		var src string
		switch i % 3 {
		case 0:
			src = concrete.GenProgram(r)
		case 1:
			src = concrete.GenFreeProgram(r)
		default:
			src = concrete.GenWideProgram(r)
		}
		prog := compileSrc(t, src)
		checkWTOAgreesWithRPO(t, "fuzz", prog)
		if t.Failed() {
			t.Fatalf("fuzz program %d:\n%s", i, src)
		}
	}
}
