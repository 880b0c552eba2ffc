package absem

import (
	"math/rand"
	"testing"

	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// graphPool explores random statement sequences over the pvars x, y, z
// and w from the empty heap and returns every distinct graph they
// reach: configurations where each pvar is NULL or not, in every
// combination the sequences happen to produce.
func graphPool(c *Context, r *rand.Rand) []*rsg.Graph {
	pvars := []string{"x", "y", "z", "w"}
	sels := []string{"nxt", "prv"}
	seen := rsrsg.New()
	for run := 0; run < 16; run++ {
		cur := empty()
		for step := 0; step < 16; step++ {
			a, b := pvars[r.Intn(len(pvars))], pvars[r.Intn(len(pvars))]
			sel := sels[r.Intn(len(sels))]
			switch r.Intn(6) {
			case 0:
				cur = XMalloc(c, cur, a, "node")
			case 1:
				cur = XNil(c, cur, a)
			case 2:
				cur = XCopy(c, cur, a, b)
			case 3:
				cur = XSelCopy(c, cur, a, sel, b)
			case 4:
				cur = XLoad(c, cur, a, b, sel)
			case 5:
				cur = XSelNil(c, cur, a, sel)
			}
			if cur.Len() == 0 {
				cur = empty()
			}
			for _, g := range cur.Graphs() {
				seen.Add(g)
			}
		}
	}
	return seen.Graphs()
}

// TestAssumeDeltaMatchesFullFilter is the reference test of the
// engine's semi-naïve Assume transfer: folding a seeded random sequence
// of in-state membership deltas (Added graphs, Removed digests) into a
// cached filter result with AssumeNullDeltaSym/AssumeNonNullDeltaSym
// must leave exactly the set that AssumeNullSym/AssumeNonNullSym
// compute from the resulting in-state, after every batch.
func TestAssumeDeltaMatchesFullFilter(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			c := ctx(lvl)
			c.InLoop = true
			c.Induction = rsg.NewPvarSet("x")
			pool := graphPool(c, r)
			if len(pool) < 8 {
				t.Fatalf("%v seed %d: pool of %d graphs is too small to exercise deltas", lvl, seed, len(pool))
			}
			x := rsg.PvarSym("x")
			in := rsrsg.New()
			null, nonNull := rsrsg.New(), rsrsg.New()
			sawNull, sawNonNull := false, false
			for step := 0; step < 30; step++ {
				// Removed members are current members (joined away in
				// the engine); Added graphs are new to the in-state.
				var removed []rsg.Digest
				for _, g := range in.Graphs() {
					if r.Intn(4) == 0 {
						removed = append(removed, g.Digest())
					}
				}
				for _, dig := range removed {
					in.Remove(dig)
				}
				var added []*rsg.Graph
				for n := r.Intn(4); n > 0; n-- {
					g := pool[r.Intn(len(pool))]
					if in.Add(g) {
						added = append(added, g)
					}
				}
				AssumeNullDeltaSym(c, null, added, removed, x)
				AssumeNonNullDeltaSym(c, nonNull, added, removed, x)
				if want := AssumeNullSym(c, in, x); !null.Equal(want) {
					t.Fatalf("%v seed %d step %d: AssumeNullDeltaSym diverged from AssumeNullSym:\ndelta %s\nfull  %s",
						lvl, seed, step, null.Signature(), want.Signature())
				}
				if want := AssumeNonNullSym(c, in, x); !nonNull.Equal(want) {
					t.Fatalf("%v seed %d step %d: AssumeNonNullDeltaSym diverged from AssumeNonNullSym:\ndelta %s\nfull  %s",
						lvl, seed, step, nonNull.Signature(), want.Signature())
				}
				sawNull = sawNull || null.Len() > 0
				sawNonNull = sawNonNull || nonNull.Len() > 0
			}
			if !sawNull || !sawNonNull {
				t.Errorf("%v seed %d: one filter side stayed empty throughout (null %v, non-null %v); the sweep is vacuous",
					lvl, seed, sawNull, sawNonNull)
			}
		}
	}
}
