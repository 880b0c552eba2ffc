package rsrsg

import "repro/internal/rsg"

// Snapshot support for the persistent analysis store: a Set is
// persisted as its member digests (the graphs themselves live in the
// store's content-addressed graph log, deduplicated across statements
// and runs), and restored by re-adding the decoded graphs. Restore
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
// the process cache) and inserted in canonical digest order, so the
// restored set is structurally identical — same entries, same order,
// same XOR digest — to the set MemberDigests was taken from.
func RestoreSetStats(graphs []*rsg.Graph, rec *rsg.RunStats) *Set {
	s := New()
	for _, g := range graphs {
		s.addEntry(newEntry(g, rec))
	}
	return s
}
