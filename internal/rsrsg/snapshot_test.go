package rsrsg

import (
	"testing"

	"repro/internal/rsg"
)

// TestRestoreSet checks that a set restored from its members, in the
// order MemberDigests lists them, is the original set — same entries,
// order, digest and size totals — and that it deduplicates and admits
// graphs as any set does. A list out of ascending digest order, or with
// a repeated digest, is rejected.
func TestRestoreSet(t *testing.T) {
	s := New()
	for _, p := range []string{"x", "y", "z"} {
		s.Add(mkGraph("t", p))
	}
	graphs := s.Graphs()
	r, ok := RestoreSetStats(graphs, nil)
	if !ok {
		t.Fatal("ascending member list rejected")
	}
	if !r.Equal(s) || r.Signature() != s.Signature() ||
		r.NumNodes() != s.NumNodes() || r.NumLinks() != s.NumLinks() {
		t.Fatalf("restored set differs:\n%s\nwant\n%s", r.Signature(), s.Signature())
	}
	if r.Add(mkGraph("t", "x")) {
		t.Error("restored set admitted a duplicate of a member")
	}
	if !r.Add(mkGraph("t", "w")) || r.Len() != 4 {
		t.Errorf("restored set rejected a new graph: Len %d", r.Len())
	}

	for name, list := range map[string][]*rsg.Graph{
		"swapped":    {graphs[1], graphs[0], graphs[2]},
		"duplicated": {graphs[0], graphs[1], graphs[1], graphs[2]},
	} {
		if _, ok := RestoreSetStats(list, nil); ok {
			t.Errorf("%s member list accepted", name)
		}
	}
}
