package rsrsg

// MergeDeltaBatch equivalence: admitting a visit's contributions in
// one batched round must land exactly where one-contribution batches
// land, and the batch's Delta must replay the pre-batch membership onto
// the post-batch one.

import (
	"math/rand"
	"testing"

	"repro/internal/rsg"
)

func TestMergeDeltaBatchMatchesSequential(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			opts := Options{}
			base := FromGraphs(lvl, randomGraphs(r, 4), opts)
			seq, bat := New(), New()
			seq.MergeDeltaBatch(lvl, []*Set{base}, opts)
			bat.MergeDeltaBatch(lvl, []*Set{base}, opts)

			contribs := []*Set{
				FromGraphs(lvl, randomGraphs(r, 3), opts),
				nil, // nil and empty contributions must be skipped
				New(),
				FromGraphs(lvl, randomGraphs(r, 5), opts),
				base, // fully-absorbed repeat: dismissed O(1)
			}
			seqChanged := false
			for _, c := range contribs {
				if !seq.MergeDeltaBatch(lvl, []*Set{c}, opts).Empty() {
					seqChanged = true
				}
			}
			shadow := membership(bat)
			batDelta := bat.MergeDeltaBatch(lvl, contribs, opts)

			sameMembership(t, membership(seq), bat, "batch vs sequential membership")
			if seqChanged == batDelta.Empty() {
				t.Fatalf("lvl=%v seed=%d: changed %v vs %v", lvl, seed, seqChanged, !batDelta.Empty())
			}
			// The delta is unique given the memberships before and
			// after the batch: Added holds only digests new to the set,
			// Removed only former members (so the two are disjoint), and
			// replaying them onto the pre-batch membership gives the
			// post-batch one.
			for _, g := range batDelta.Added {
				if _, ok := shadow[g.Digest()]; ok {
					t.Fatalf("lvl=%v seed=%d: Added holds pre-batch member %s", lvl, seed, g.Digest())
				}
			}
			for _, dig := range batDelta.Removed {
				if _, ok := shadow[dig]; !ok {
					t.Fatalf("lvl=%v seed=%d: Removed holds non-member %s", lvl, seed, dig)
				}
			}
			applyDelta(shadow, batDelta)
			sameMembership(t, shadow, bat, "batched delta replay")
		}
	}
}
