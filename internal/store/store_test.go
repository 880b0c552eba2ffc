package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rsg"
)

func testGraph(rng *rand.Rand) *rsg.Graph {
	g := rsg.NewGraph()
	n := 1 + rng.Intn(5)
	ids := make([]rsg.NodeID, 0, n)
	for i := 0; i < n; i++ {
		nd := g.AddNode(rsg.NewNode("list"))
		nd.Singleton = rng.Intn(2) == 0
		ids = append(ids, nd.ID)
	}
	for i := 0; i < rng.Intn(2*n); i++ {
		g.AddLink(ids[rng.Intn(n)], "nxt", ids[rng.Intn(n)])
	}
	g.SetPvar("p", ids[0])
	return g.Freeze()
}

func dig(b byte) (d Key) {
	for i := range d {
		d[i] = b
	}
	return
}

// TestStoreRoundTrip: graphs, memos and snapshots all survive a
// close/reopen cycle with identical content.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")
	rng := rand.New(rand.NewSource(7))

	s, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	graphs := make([]*rsg.Graph, 8)
	for i := range graphs {
		graphs[i] = testGraph(rng)
		if err := s.PutGraph(graphs[i]); err != nil {
			t.Fatalf("put graph: %v", err)
		}
		// Duplicate put must be a no-op, not an error or a second record.
		if err := s.PutGraph(graphs[i]); err != nil {
			t.Fatalf("dup put graph: %v", err)
		}
	}
	outDigs := []rsg.Digest{graphs[0].Digest(), graphs[1].Digest()}
	if err := s.PutMemo(dig(1), graphs[2].Digest(), outDigs); err != nil {
		t.Fatalf("put memo: %v", err)
	}
	snap := &Snapshot{
		Prog: dig(9), Name: "fig1", Fp: 0xDEADBEEF,
		Converged: true, VisitBudget: 200000, NodeBudget: 40, Visits: 17,
		Stmts: []SnapStmt{
			{ID: 0, Digest: dig(2), HasOut: true, Out: outDigs},
			{ID: 1, Digest: dig(3), HasOut: false},
		},
	}
	if err := s.PutSnapshot(snap); err != nil {
		t.Fatalf("put snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if ng, nm, ns := s2.Counts(); ng != len(graphs) || nm != 1 || ns != 1 {
		t.Fatalf("counts after reopen: %d graphs %d memos %d snaps", ng, nm, ns)
	}
	for i, g := range graphs {
		got, ok := s2.Graph(g.Digest())
		if !ok {
			t.Fatalf("graph %d missing after reopen", i)
		}
		if got.Digest() != g.Digest() {
			t.Fatalf("graph %d digest mismatch", i)
		}
	}
	if v, ok := s2.Memo(dig(1), graphs[2].Digest()); !ok || len(v) != 2 || v[0] != outDigs[0] || v[1] != outDigs[1] {
		t.Fatalf("memo lost: %v %v", v, ok)
	}
	if _, ok := s2.Memo(dig(1), graphs[3].Digest()); ok {
		t.Fatalf("phantom memo hit")
	}
	got, ok := s2.Snapshot(dig(9), 0xDEADBEEF)
	if !ok {
		t.Fatalf("snapshot lost")
	}
	if got.Name != "fig1" || !got.Converged || got.VisitBudget != 200000 ||
		got.NodeBudget != 40 || got.Visits != 17 || len(got.Stmts) != 2 {
		t.Fatalf("snapshot fields mangled: %+v", got)
	}
	if got.Stmts[0].Digest != dig(2) || !got.Stmts[0].HasOut || len(got.Stmts[0].Out) != 2 ||
		got.Stmts[1].HasOut || got.Stmts[1].Digest != dig(3) {
		t.Fatalf("snapshot stmts mangled: %+v", got.Stmts)
	}
	if _, ok := s2.Snapshot(dig(9), 0xBADF00D); ok {
		t.Fatalf("snapshot hit under wrong fingerprint")
	}
	if byName, ok := s2.SnapshotByName("fig1", 0xDEADBEEF); !ok || byName.Prog != dig(9) {
		t.Fatalf("by-name lookup broken")
	}
}

// TestStoreSnapshotShadowing: the latest snapshot under a key wins,
// including across reopen (log order).
func TestStoreSnapshotShadowing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")
	s, _ := Open(path)
	s.PutSnapshot(&Snapshot{Prog: dig(1), Name: "k", Fp: 5, Visits: 1})
	s.PutSnapshot(&Snapshot{Prog: dig(1), Name: "k", Fp: 5, Visits: 2})
	s.PutSnapshot(&Snapshot{Prog: dig(2), Name: "k", Fp: 5, Visits: 3})
	s.Close()

	s2, _ := Open(path)
	defer s2.Close()
	if got, ok := s2.Snapshot(dig(1), 5); !ok || got.Visits != 2 {
		t.Fatalf("shadowing broken: %+v", got)
	}
	// By name, the newest record for the name wins regardless of digest.
	if got, ok := s2.SnapshotByName("k", 5); !ok || got.Visits != 3 {
		t.Fatalf("by-name latest broken: %+v", got)
	}
}

// TestStoreTornTailRecovery: appending garbage, a truncated record, or
// flipping bits in the tail must cost at most the tail — Open succeeds
// and truncates the file to its last good record, earlier records stay
// readable, and no read ever returns a graph whose digest does not match
// its key.
func TestStoreTornTailRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := filepath.Join(t.TempDir(), "cache.rsgstore")
	s, _ := Open(base)
	gKeep := testGraph(rng)
	s.PutGraph(gKeep)
	s.Close()
	pristine, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	// A second graph whose record we will mutilate.
	s, _ = Open(base)
	var gTail *rsg.Graph
	for gTail == nil || gTail.Digest() == gKeep.Digest() {
		gTail = testGraph(rng)
	}
	s.PutGraph(gTail)
	s.Close()
	full, _ := os.ReadFile(base)

	// Each damaged file, and the length of its last good record's end,
	// which Open must truncate the file to.
	mutations := map[string]struct {
		data []byte
		good int
	}{
		"trailing_garbage": {append(append([]byte(nil), full...), 0xFF, 0x13, 0x37), len(full)},
		"torn_record":      {full[:len(pristine)+(len(full)-len(pristine))/2], len(pristine)},
		"flipped_crc":      {flipByte(full, len(full)-1), len(pristine)},
		"flipped_body":     {flipByte(full, len(pristine)+24), len(pristine)},
	}
	for name, m := range mutations {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mut.rsgstore")
			if err := os.WriteFile(path, m.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatalf("open after %s: %v", name, err)
			}
			defer s.Close()
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(m.good) {
				t.Fatalf("open after %s left %d bytes, want the %d up to the last good record", name, st.Size(), m.good)
			}
			got, ok := s.Graph(gKeep.Digest())
			if !ok || got.Digest() != gKeep.Digest() {
				t.Fatalf("pristine prefix lost after %s", name)
			}
			// The damaged tail record must be either gone or still
			// correct — never wrong.
			if got, ok := s.Graph(gTail.Digest()); ok && got.Digest() != gTail.Digest() {
				t.Fatalf("corrupt record served wrong graph")
			}
			// The store must be appendable again after recovery.
			gNew := testGraph(rng)
			if err := s.PutGraph(gNew); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if _, ok := s.Graph(gNew.Digest()); !ok {
				t.Fatalf("append after recovery unreadable")
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestStoreRejectsForeignFile: a non-empty file without the magic is
// refused, not clobbered.
func TestStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("#!/bin/sh\necho hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatalf("opened a foreign file as a store")
	}
	data, _ := os.ReadFile(path)
	if string(data) != "#!/bin/sh\necho hello\n" {
		t.Fatalf("foreign file was modified")
	}
}
