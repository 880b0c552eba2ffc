package rsrsg

import (
	"math/rand"
	"testing"

	"repro/internal/rsg"
)

// membership returns the set's member digests.
func membership(s *Set) map[rsg.Digest]struct{} {
	m := make(map[rsg.Digest]struct{}, s.Len())
	s.ForEachEntry(func(_ *rsg.Graph, dig rsg.Digest) { m[dig] = struct{}{} })
	return m
}

// applyDelta replays a reported Delta onto a membership snapshot.
func applyDelta(m map[rsg.Digest]struct{}, d Delta) {
	for _, dig := range d.Removed {
		delete(m, dig)
	}
	for _, g := range d.Added {
		m[g.Digest()] = struct{}{}
	}
}

func sameMembership(t *testing.T, want map[rsg.Digest]struct{}, s *Set, msg string) {
	t.Helper()
	got := membership(s)
	if len(got) != len(want) {
		t.Fatalf("%s: replayed membership has %d members, set has %d", msg, len(want), len(got))
	}
	for dig := range want {
		if _, ok := got[dig]; !ok {
			t.Fatalf("%s: replayed membership contains %s, set does not", msg, dig)
		}
	}
}

// TestMergeDeltaReportsExactMembershipDelta is the Delta contract the
// semi-naïve engine rests on: Added and Removed come in strict digest
// order, and replaying them onto a snapshot of the pre-merge membership
// must reconstruct the post-merge membership exactly — across levels,
// duplicate digests, and empty contributions.
func TestMergeDeltaReportsExactMembershipDelta(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			s := New()
			shadow := membership(s)
			for step := 0; step < 8; step++ {
				var contribution *Set
				switch step {
				case 3:
					contribution = New() // empty contribution
				case 5:
					// Duplicate digests: re-send an earlier round's
					// graphs mixed with fresh ones.
					gs := randomGraphs(rand.New(rand.NewSource(seed)), 4, lvl)
					gs = append(gs, randomGraphs(r, 3, lvl)...)
					contribution = FromGraphs(lvl, gs, Options{})
				default:
					contribution = FromGraphs(lvl, randomGraphs(r, 5, lvl), Options{})
				}
				d := s.MergeDeltaBatch(lvl, []*Set{contribution}, Options{})
				for i := 1; i < len(d.Added); i++ {
					if d.Added[i-1].Digest().Compare(d.Added[i].Digest()) >= 0 {
						t.Fatalf("%v seed %d step %d: Added not in strict digest order", lvl, seed, step)
					}
				}
				for i := 1; i < len(d.Removed); i++ {
					if d.Removed[i-1].Compare(d.Removed[i]) >= 0 {
						t.Fatalf("%v seed %d step %d: Removed not in strict digest order", lvl, seed, step)
					}
				}
				applyDelta(shadow, d)
				sameMembership(t, shadow, s, "after MergeDeltaBatch")
			}
		}
	}
}

// TestAccumMatchesFullReduce is the dirty-bucket re-reduction property:
// after every random add/remove of transfer parts, the accumulator's
// incrementally maintained out-state must be digest-identical to a full
// UnionAll reduction over the currently live parts.
func TestAccumMatchesFullReduce(t *testing.T) {
	opts := Options{}
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(40); seed < 44; seed++ {
			r := rand.New(rand.NewSource(seed))
			acc := NewAccum(lvl)
			var live []*Set
			for step := 0; step < 10; step++ {
				var add, remove []*Set
				// Mostly grow (the engine's in-states are monotone;
				// removals model members joined away), sometimes with
				// an empty delta.
				switch {
				case step == 4:
					// no-op delta: must return the cached state
				case len(live) > 2 && r.Intn(3) == 0:
					i := r.Intn(len(live))
					remove = append(remove, live[i])
					live = append(live[:i], live[i+1:]...)
					add = append(add, FromGraphs(lvl, randomGraphs(r, 3, lvl), Options{}))
					live = append(live, add[0])
				default:
					for n := 1 + r.Intn(2); n > 0; n-- {
						p := FromGraphs(lvl, randomGraphs(r, 3, lvl), Options{})
						add = append(add, p)
						live = append(live, p)
					}
				}
				out, dirty := acc.MergeDeltaDirty(add, remove, opts)
				if len(add) == 0 && len(remove) == 0 && dirty != 0 {
					t.Fatalf("%v seed %d step %d: empty delta dirtied %d buckets", lvl, seed, step, dirty)
				}
				want := UnionAll(lvl, live, opts)
				if !out.Equal(want) {
					t.Fatalf("%v seed %d step %d: accum diverged from full reduce:\naccum %s\nfull  %s",
						lvl, seed, step, out.Signature(), want.Signature())
				}
				if acc.Len() != want.Len() {
					t.Fatalf("%v seed %d step %d: Accum.Len=%d want %d", lvl, seed, step, acc.Len(), want.Len())
				}
			}
		}
	}
}

// TestAccumDuplicatePartsRefcount pins the refcount semantics: two
// identical parts added then one removed must leave the entries live;
// removing the second retracts them.
func TestAccumDuplicatePartsRefcount(t *testing.T) {
	p1 := New()
	p1.Add(mkGraph("t", "x"))
	p2 := p1.Clone()
	acc := NewAccum(rsg.L1)
	out, _ := acc.MergeDeltaDirty([]*Set{p1, p2}, nil, Options{})
	if out.Len() != 1 {
		t.Fatalf("after two identical parts: Len=%d, want 1", out.Len())
	}
	out, _ = acc.MergeDeltaDirty(nil, []*Set{p1}, Options{})
	if out.Len() != 1 {
		t.Fatalf("after removing one of two refs: Len=%d, want 1", out.Len())
	}
	out, _ = acc.MergeDeltaDirty(nil, []*Set{p2}, Options{})
	if out.Len() != 0 {
		t.Fatalf("after removing the last ref: Len=%d, want 0", out.Len())
	}
}

// TestAccumParallelMatchesSequential runs the dirty-bucket reduction
// with the adversarial goroutine executor: identical membership to the
// sequential accumulator at every step.
func TestAccumParallelMatchesSequential(t *testing.T) {
	for seed := int64(60); seed < 64; seed++ {
		r := rand.New(rand.NewSource(seed))
		seq := NewAccum(rsg.L1)
		par := NewAccum(rsg.L1)
		for step := 0; step < 6; step++ {
			p := FromGraphs(rsg.L1, randomGraphs(r, 6, rsg.L1), Options{})
			so, _ := seq.MergeDeltaDirty([]*Set{p}, nil, Options{})
			po, _ := par.MergeDeltaDirty([]*Set{p}, nil, Options{Exec: goExec})
			if !so.Equal(po) {
				t.Fatalf("seed %d step %d: parallel accum diverged:\nseq %s\npar %s",
					seed, step, so.Signature(), po.Signature())
			}
		}
	}
}
