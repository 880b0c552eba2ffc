package absem

import (
	"testing"

	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// TestStepsNeverMutateFrozenInputs drives every per-graph transfer over
// frozen input graphs. The freeze guard turns any in-place mutation of
// an input into a panic, so simply completing the calls proves the
// clone-before-mutate discipline; the digest check additionally catches
// mutations of shared sub-structures (node property sets) that the
// graph-level guard cannot see.
func TestStepsNeverMutateFrozenInputs(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		c := ctx(lvl)
		c.Induction = rsg.NewPvarSet("p")
		set := buildList(t, c)

		for _, g := range set.Graphs() {
			if !g.Frozen() {
				t.Fatal("set members must be frozen")
			}
			before := g.Digest()
			steps := []func(){
				func() { StepNil(c, g, "head") },
				func() { StepNil(c, g, "unbound") },
				func() { StepMalloc(c, g, "head", "node") },
				func() { StepMalloc(c, g, "fresh", "node") },
				func() { StepCopy(c, g, "p", "head") },
				func() { StepCopy(c, g, "fresh", "head") },
				func() { StepSelNil(c, g, "head", "nxt") },
				func() { StepSelCopy(c, g, "head", "nxt", "p") },
				func() { StepLoad(c, g, "p", "head", "nxt") },
			}
			for i, step := range steps {
				step()
				if g.Digest() != before {
					t.Fatalf("level %v: step %d mutated its frozen input", lvl, i)
				}
			}
		}

		// The set-level pipelines (divide/prune/materialize/compress)
		// must leave the input set's members untouched too.
		beforeSet := set.Digest()
		_ = XSelNil(c, set, "head", "nxt")
		_ = XLoad(c, set, "p", "head", "nxt")
		_ = AssumeNull(c, set, "p")
		_ = AssumeNonNull(c, set, "head")
		_ = EraseTouch(c, set, rsg.NewPvarSet("p"))
		if set.Digest() != beforeSet {
			t.Fatalf("level %v: set-level pipeline mutated its input set", lvl)
		}
	}
}

// TestEraseTouchOnFrozen exercises the touch-erasure clone path (it
// rewrites node TOUCH sets) against frozen members specifically.
func TestEraseTouchOnFrozen(t *testing.T) {
	c := ctx(rsg.L3)
	c.Induction = rsg.NewPvarSet("p")
	set := buildList(t, c)
	out := EraseTouch(c, set, rsg.NewPvarSet("p"))
	for _, g := range out.Graphs() {
		if !g.Frozen() {
			t.Fatal("EraseTouch output members must be frozen set members")
		}
	}
}

// TestSetMembersAlwaysFrozen: every construction path into an RSRSG
// freezes, so the analysis engine can share graphs across sets freely.
func TestSetMembersAlwaysFrozen(t *testing.T) {
	c := ctx(rsg.L1)
	s := empty()
	s = XMalloc(c, s, "x", "t")
	s = XSelNil(c, s, "x", "nxt")
	u := rsrsg.UnionAll(rsg.L1, []*rsrsg.Set{s, empty()}, c.Opts)
	for _, g := range u.Graphs() {
		if !g.Frozen() {
			t.Fatal("union output member not frozen")
		}
	}
}
