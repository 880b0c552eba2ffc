package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/store"
)

// The persistence test programs are small list kernels in the mini-C
// dialect; persistSrcV2 is persistSrc plus the canonical one-statement
// tail edit (`head = NULL;` before the closing brace).
const persistSrc = `
struct node { int val; struct node *nxt; };

void main(void) {
    struct node *head;
    struct node *p;
    struct node *q;
    head = malloc(sizeof(struct node));
    head->nxt = NULL;
    p = head;
    while (more) {
        q = malloc(sizeof(struct node));
        q->nxt = NULL;
        p->nxt = q;
        p = q;
    }
    q = NULL;
    p = head;
    while (p != NULL) {
        p = p->nxt;
    }
}
`

const persistSrcV2 = `
struct node { int val; struct node *nxt; };

void main(void) {
    struct node *head;
    struct node *p;
    struct node *q;
    head = malloc(sizeof(struct node));
    head->nxt = NULL;
    p = head;
    while (more) {
        q = malloc(sizeof(struct node));
        q->nxt = NULL;
        p->nxt = q;
        p = q;
    }
    q = NULL;
    p = head;
    while (p != NULL) {
        p = p->nxt;
    }
    head = NULL;
}
`

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	file, err := cminic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.LowerMain(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatalf("store open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// outDigests snapshots the per-statement set digests of a result.
func outDigests(res *Result) map[int]rsg.Digest {
	out := make(map[int]rsg.Digest, len(res.Out))
	for id, s := range res.Out {
		out[id] = s.Digest()
	}
	return out
}

func sameDigests(t *testing.T, label string, want, got map[int]rsg.Digest) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: statement coverage differs: want %d out-states, got %d", label, len(want), len(got))
	}
	for id, d := range want {
		if got[id] != d {
			t.Fatalf("%s: digest mismatch at stmt %d:\nwant %x\ngot  %x", label, id, d, got[id])
		}
	}
}

// TestPersistDeterminismMatrix is the persist dimension of the
// determinism matrix: cold, warm-from-store, and a zero-statement
// edit-delta run must produce bit-identical per-statement set digests
// at workers {1,4} — and the store-backed cold run must match the
// storeless baseline.
func TestPersistDeterminismMatrix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{Workers: workers}

			// Reference: storeless cold run.
			ref, err := Run(compileSrc(t, persistSrc), opts)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			want := outDigests(ref)

			st := openStore(t, filepath.Join(t.TempDir(), "cache.rsgstore"))
			opts.Store = st

			// Cold with store: identical digests, snapshot recorded.
			cold, err := Run(compileSrc(t, persistSrc), opts)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			sameDigests(t, "cold-with-store", want, outDigests(cold))
			if cold.Stats.ReusedStatements != 0 || cold.Stats.ReseededStatements != 0 {
				t.Fatalf("cold run reports reuse: %+v", cold.Stats)
			}

			// Warm: zero work, identical digests.
			warm, err := Run(compileSrc(t, persistSrc), opts)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			sameDigests(t, "warm", want, outDigests(warm))
			if warm.Stats.Visits != 0 || warm.Stats.DeltaTransfers != 0 {
				t.Fatalf("warm run did work: %+v", warm.Stats)
			}
			if warm.Stats.ReusedStatements != len(want) {
				t.Fatalf("warm reused %d statements, want %d", warm.Stats.ReusedStatements, len(want))
			}

			// Zero-statement edit-delta: the diff/seed machinery runs
			// with an empty cone and must also be a zero-work replay.
			zopts := opts
			zopts.forceEditDelta = true
			zero, err := Run(compileSrc(t, persistSrc), zopts)
			if err != nil {
				t.Fatalf("zero-edit: %v", err)
			}
			sameDigests(t, "zero-edit", want, outDigests(zero))
			if zero.Stats.Visits != 0 || zero.Stats.ReseededStatements != 0 {
				t.Fatalf("zero-edit run did work: %+v", zero.Stats)
			}
			if zero.Stats.ReusedStatements != len(want) {
				t.Fatalf("zero-edit reused %d statements, want %d", zero.Stats.ReusedStatements, len(want))
			}
		})
	}
}

// TestPersistWarmAcrossReopen: a warm start must survive closing and
// reopening the store file — the cross-process scenario the
// name-based codec exists for.
func TestPersistWarmAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")
	ref, err := Run(compileSrc(t, persistSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := outDigests(ref)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(compileSrc(t, persistSrc), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, path)
	warm, err := Run(compileSrc(t, persistSrc), Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	sameDigests(t, "warm-after-reopen", want, outDigests(warm))
	if warm.Stats.Visits != 0 {
		t.Fatalf("reopened warm run did %d visits", warm.Stats.Visits)
	}
}

// TestPersistOneStatementEdit: after appending one statement at the
// tail, the edit-delta run must re-analyze only the changed statement's
// forward cone — and still match the edited program's cold digests
// bit for bit.
func TestPersistOneStatementEdit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{Workers: workers}
			// Reference: storeless cold run of the EDITED program.
			ref, err := Run(compileSrc(t, persistSrcV2), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := outDigests(ref)

			st := openStore(t, filepath.Join(t.TempDir(), "cache.rsgstore"))
			opts.Store = st
			// Populate with the BASE program.
			if _, err := Run(compileSrc(t, persistSrc), opts); err != nil {
				t.Fatal(err)
			}
			// Analyze the edited program against the base snapshot.
			edited := compileSrc(t, persistSrcV2)
			nStmts := len(edited.Stmts)
			res, err := Run(edited, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameDigests(t, "edit-delta", want, outDigests(res))
			if res.Stats.ReseededStatements == 0 {
				t.Fatalf("edit run did not take the edit-delta path: %+v", res.Stats)
			}
			if res.Stats.ReseededStatements >= nStmts/2 {
				t.Fatalf("edit cone too large: %d of %d statements reseeded",
					res.Stats.ReseededStatements, nStmts)
			}
			if res.Stats.ReusedStatements == 0 {
				t.Fatalf("edit run restored nothing: %+v", res.Stats)
			}
			if res.Stats.ReusedStatements+res.Stats.ReseededStatements < nStmts-2 {
				t.Fatalf("reuse+reseed covers too little: %d+%d of %d",
					res.Stats.ReusedStatements, res.Stats.ReseededStatements, nStmts)
			}
		})
	}
}

// TestPersistNonConvergedSnapshot: a budget-bounded run's snapshot is
// the deterministic prefix of the fixpoint iteration; it may only be
// replayed for the exact same budget, and the replay reports the same
// ErrNoConvergence outcome with zero work.
func TestPersistNonConvergedSnapshot(t *testing.T) {
	budget := 10
	ref, err := Run(compileSrc(t, persistSrc), Options{MaxVisits: budget})
	if err != ErrNoConvergence {
		t.Fatalf("baseline outcome: %v", err)
	}
	want := outDigests(ref)

	st := openStore(t, filepath.Join(t.TempDir(), "cache.rsgstore"))
	if _, err := Run(compileSrc(t, persistSrc), Options{MaxVisits: budget, Store: st}); err != ErrNoConvergence {
		t.Fatalf("populate outcome: %v", err)
	}

	warm, err := Run(compileSrc(t, persistSrc), Options{MaxVisits: budget, Store: st})
	if err != ErrNoConvergence {
		t.Fatalf("warm outcome: %v", err)
	}
	sameDigests(t, "bounded-warm", want, outDigests(warm))
	if warm.Stats.Visits != 0 {
		t.Fatalf("bounded warm run did %d visits", warm.Stats.Visits)
	}

	// A different budget must NOT be served from the bounded snapshot.
	other, err := Run(compileSrc(t, persistSrc), Options{MaxVisits: budget + 1, Store: st})
	if err != ErrNoConvergence {
		t.Fatalf("other-budget outcome: %v", err)
	}
	if other.Stats.Visits == 0 {
		t.Fatalf("bounded snapshot served a different budget")
	}
}

// TestPersistFingerprintInvalidation: runs under different
// result-changing options must not share snapshots.
func TestPersistFingerprintInvalidation(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cache.rsgstore"))
	if _, err := Run(compileSrc(t, persistSrc), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Fingerprinted options: each variant keys a distinct snapshot, so
	// none is served the default-options result and the original still
	// warm-starts afterwards.
	variants := []Options{
		{Store: st, Level: rsg.L2},
		{Store: st, DisableJoin: true},
	}
	for i, opts := range variants {
		res, err := Run(compileSrc(t, persistSrc), opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if res.Stats.Visits == 0 {
			t.Fatalf("variant %d was served the default-options snapshot", i)
		}
	}
	res, err := Run(compileSrc(t, persistSrc), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Visits != 0 {
		t.Fatalf("original options no longer warm-start")
	}
	// NodeBudget is not fingerprinted — it shares the snapshot key and is
	// gated by an exact-match check instead, so a mismatched budget runs
	// cold rather than being served the default-budget snapshot.
	res, err = Run(compileSrc(t, persistSrc), Options{Store: st, NodeBudget: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Visits == 0 {
		t.Fatalf("node-budget variant was served a mismatched snapshot")
	}
}

// TestPersistCorruptedStoreFallsBackToCold: damaging the store file in
// assorted ways must never panic a run and never change its digests —
// at worst the run degrades to cold.
func TestPersistCorruptedStoreFallsBackToCold(t *testing.T) {
	ref, err := Run(compileSrc(t, persistSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := outDigests(ref)

	base := filepath.Join(t.TempDir(), "cache.rsgstore")
	st, err := store.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(compileSrc(t, persistSrc), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	pristine, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated_60pct", pristine[:len(pristine)*6/10]},
		{"truncated_20pct", pristine[:len(pristine)*2/10]},
		{"flipped_mid", flip(pristine, len(pristine)/2)},
		{"flipped_late", flip(pristine, len(pristine)-5)},
		{"garbage_appended", append(append([]byte(nil), pristine...), 0xde, 0xad, 0xbe, 0xef)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.rsgstore")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(path)
			if err != nil {
				// The mutation destroyed the header: the store refuses
				// the file, the caller runs storeless. Still correct.
				st = nil
			} else {
				defer st.Close()
			}
			res, err := Run(compileSrc(t, persistSrc), Options{Store: st})
			if err != nil {
				t.Fatalf("run with damaged store: %v", err)
			}
			sameDigests(t, tc.name, want, outDigests(res))
		})
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestPersistStoreMemoTier: with the snapshot path disabled (different
// budget so no warm hit), the persistent transfer-memo tier must serve
// parts across runs.
func TestPersistStoreMemoTier(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "cache.rsgstore"))
	if _, err := Run(compileSrc(t, persistSrc), Options{Store: st, MaxVisits: 10}); err != ErrNoConvergence {
		t.Fatalf("populate: %v", err)
	}
	// MaxVisits 11: the bounded snapshot (budget 10) is not eligible, so
	// the run recomputes — but the store memo serves the transfers it
	// already saw.
	res, err := Run(compileSrc(t, persistSrc), Options{Store: st, MaxVisits: 11})
	if err != ErrNoConvergence {
		t.Fatalf("rerun: %v", err)
	}
	if res.Stats.StoreMemoHits == 0 {
		t.Fatalf("store memo tier never hit: %+v", res.Stats)
	}
}
