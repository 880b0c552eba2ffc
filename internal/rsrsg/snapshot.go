package rsrsg

import "repro/internal/rsg"

// Snapshot support for the persistent analysis store: a Set is
// persisted as its member digests (the graphs themselves live in the
// store's content-addressed graph log, deduplicated across statements
// and runs), and restored from the decoded graphs in one pass. Restore
// deliberately does not Reduce — stored sets are already reduced
// fixpoint values, and re-reducing could only perturb them.

// MemberDigests returns the digests of the member graphs in canonical
// (sorted) order. The set digest is derivable from these (XOR), so this
// list is the complete persistent identity of the set.
func (s *Set) MemberDigests() []rsg.Digest {
	if s == nil {
		return nil
	}
	out := make([]rsg.Digest, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.dig
	}
	return out
}

// RestoreSetStats rebuilds a Set from decoded member graphs without
// reducing, attributing the intern work to rec (nil records nothing).
// Graphs are interned (decode already froze them; Intern dedups against
// the process cache). They must arrive in strictly ascending digest
// order, the order MemberDigests lists them in, so the entries are
// built in one pass, with the member index left for the first mutation
// to rebuild (as after Clone). The restored set is structurally
// identical — same entries, same order, same XOR digest — to the set
// MemberDigests was taken from. A list out of order or with a repeated
// digest was not written by MemberDigests: RestoreSetStats returns
// false, and the caller treats the stored list as unreadable.
func RestoreSetStats(graphs []*rsg.Graph, rec *rsg.RunStats) (*Set, bool) {
	s := &Set{entries: make([]entry, len(graphs))}
	for i, g := range graphs {
		e := newEntry(g, rec)
		if i > 0 && !s.entries[i-1].dig.Less(e.dig) {
			return nil, false
		}
		s.entries[i] = e
		xorDigest(&s.setDig, e.dig)
		s.numNodes += e.g.NumNodes()
		s.numLinks += e.g.NumLinks()
	}
	return s, true
}
