package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cminic"
	"repro/internal/ir"
)

// pinnedDigests holds, per program, the program digest and the folds of
// its per-statement and per-transfer digests.
type pinnedDigests struct {
	prog, stmts, transfers string
}

// TestDigestsPinned pins the store key material (DESIGN.md §13) of the
// four Table 1 kernels and two corpus programs. A change that moves any
// of these values orphans every stored snapshot and memo entry, so it
// must bump the analysis package's persistSchema and re-record them.
func TestDigestsPinned(t *testing.T) {
	want := map[string]pinnedDigests{
		"matvec":                 {"ee421e6475f1587c19eddd5b7f5cea85", "f5e2886b61f83ad9c0fa5b4899c22c8a", "7440348c81eec3c4726d3672a614b664"},
		"matmat":                 {"66ffd6a6dd95cdd9b7a3a86e8824101b", "f84dc92a5fd154c2f542ffe6a640bca9", "cc9cc2ab530b324e5b0db8fed2605d0e"},
		"lu":                     {"ffc32c710dcaa14291f41f3e340ad9d7", "70ceb308db9f62fb6c5aff60a9b10b35", "ff16ebe4f7c025c96da6b824213550a4"},
		"barneshut":              {"a5572153294026595c0886014bfb49c4", "5a6d6d55473408c0064d47a7d59cfe35", "31d7c661583b44af571ea60e929e69c7"},
		"leak_pop_free_safe.c":   {"e4d86676297a87bb652b220893080c4d", "0638e13be2d248164b1ddae79b05d114", "29fa4c4314ca771d42accd9c0864cb50"},
		"uaf_unlink_loop_safe.c": {"dab80d7e45c36923810b3338c5b2b4c0", "3df0a330ce59d2bac98d0b272b04c0f0", "fe1fe45e515432c981f53e403d5ed9ab"},
	}
	progs := map[string]*ir.Program{}
	for _, k := range benchprog.Kernels() {
		prog, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs[k.Name] = prog
	}
	for _, name := range []string{"leak_pop_free_safe.c", "uaf_unlink_loop_safe.c"} {
		src, err := os.ReadFile(filepath.Join("..", "verdict", "testdata", "corpus", name))
		if err != nil {
			t.Fatal(err)
		}
		file, err := cminic.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := ir.LowerMain(file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = prog
	}
	if len(progs) != len(want) {
		t.Fatalf("compiled %d programs, pinned %d", len(progs), len(want))
	}
	for name, prog := range progs {
		dig := prog.Digest()
		got := pinnedDigests{
			prog:      hex.EncodeToString(dig[:]),
			stmts:     foldDigests(prog.StmtDigests()),
			transfers: foldDigests(prog.TransferDigests()),
		}
		if got != want[name] {
			t.Errorf("%s: digests %+v, want %+v", name, got, want[name])
		}
	}
}

// foldDigests hashes a digest list in order into one hex string.
func foldDigests(ds []ir.StmtDigest) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
