package store

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rsg"
)

// TestOpenLockConflict is the regression test for the unguarded
// concurrent-access bug: before the flock discipline, two Opens of one
// path each got a live write path and could interleave appends. Now
// the second writer is refused with ErrLocked, and closing the holder
// releases the path.
func TestOpenLockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")

	w, err := Open(path)
	if err != nil {
		t.Fatalf("open writer: %v", err)
	}
	if _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer Open: got %v, want ErrLocked", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}

	w2, err := Open(path)
	if err != nil {
		t.Fatalf("writer after the first closed: %v", err)
	}
	w2.Close()
}

// TestConcurrentStoreHammer drives every public Store operation from
// many goroutines over one shared instance — the in-process shape of
// the daemon's steady state. Run under -race via `make test-race`.
func TestConcurrentStoreHammer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.rsgstore")
	s, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	const workers = 8
	const opsPerWorker = 120
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var digs []rsg.Digest
			for i := 0; i < opsPerWorker; i++ {
				g := testGraph(rng)
				if err := s.PutGraph(g); err != nil {
					errs <- err
					return
				}
				digs = append(digs, g.Digest())
				probe := digs[rng.Intn(len(digs))]
				if _, ok := s.Graph(probe); !ok {
					errs <- errors.New("Graph lost a stored digest")
					return
				}
				stmt := dig(byte(rng.Intn(16)))
				if err := s.PutMemo(stmt, probe, digs[:1+rng.Intn(len(digs))]); err != nil {
					errs <- err
					return
				}
				s.Memo(stmt, probe)
				if i%16 == 0 {
					snap := &Snapshot{Prog: dig(byte(seed)), Name: "hammer", Fp: uint64(seed),
						Visits: i, Converged: true,
						Stmts: []SnapStmt{{ID: 0, Digest: dig(1), HasOut: true, Out: digs[:1]}}}
					if err := s.PutSnapshot(snap); err != nil {
						errs <- err
						return
					}
					s.Snapshot(dig(byte(seed)), uint64(seed))
					s.SnapshotByName("hammer", uint64(seed))
				}
				s.Counts()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The log all those interleaved appends produced must replay
	// cleanly and completely.
	ng, nm, ns := s.Counts()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after hammer: %v", err)
	}
	defer s2.Close()
	if ng2, nm2, ns2 := s2.Counts(); ng2 != ng || nm2 != nm || ns2 != ns {
		t.Fatalf("replay lost records: %d/%d/%d -> %d/%d/%d", ng, nm, ns, ng2, nm2, ns2)
	}
}
