package concrete

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rsg"
)

// fuzzSeed returns the master generator seed: the FUZZ_SEED environment
// variable when set (the nightly sweep rotates it; `make fuzz
// FUZZ_SEED=...` replays a rotation), else the committed default.
func fuzzSeed(t *testing.T) int64 {
	if env := os.Getenv("FUZZ_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("invalid FUZZ_SEED %q: %v", env, err)
		}
		return seed
	}
	return 20260706
}

// TestFuzzSoundness cross-validates the analysis against the concrete
// interpreter on randomly generated programs: every reachable concrete
// heap must be covered by the RSRSG of its statement, at every level.
// The abstract side runs with Workers: 4 so the fuzzer also sweeps the
// parallel engine — soundness must hold on the parallel results too
// (they are digest-identical to sequential by the determinism
// property, so a divergence here is a determinism bug as much as a
// soundness one).
//
// A failure prints the `shapetriage` command that replays it, with the
// program's generator and seed, level and trace seeds, for the
// structured cover-diff report; add `-shrink` to distill a corpus case
// (DESIGN.md §11).
func TestFuzzSoundness(t *testing.T) {
	programs := 30
	traces := 10
	if testing.Short() {
		programs, traces = 4, 4
	}
	seedRng := rand.New(rand.NewSource(fuzzSeed(t)))
	for i := 0; i < programs; i++ {
		gen, genName := GenProgram, "plain"
		if i%3 == 2 { // every third program mixes in free()
			gen, genName = GenFreeProgram, "free"
		}
		if i%5 == 4 { // every fifth program sweeps the spill path
			gen, genName = GenWideProgram, "wide"
		}
		genSeed := seedRng.Int63()
		src := gen(rand.New(rand.NewSource(genSeed)))
		prog := compile(t, src)
		traceSeed := int64(1000 + i)
		for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
			replay := fmt.Sprintf("go run ./cmd/shapetriage -gen %s -genseed %d -level %d -runs %d -seed %d",
				genName, genSeed, lvl, traces, traceSeed)
			res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: 50000, Workers: 4})
			if err != nil {
				t.Fatalf("program %d at %s: %v\nreplay: %s\n%s", i, lvl, err, replay, src)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("program %d at %s panicked: %v\nreplay: %s\n%s", i, lvl, r, replay, src)
					}
				}()
				fail, err := FindCoverFailure(prog, res.Out, res.Level, traces, traceSeed)
				if err != nil {
					t.Fatalf("program %d at %s: %v\nreplay: %s", i, lvl, err, replay)
				}
				if fail != nil {
					t.Fatalf("program %d at %s: %s\nreplay: %s", i, lvl, fail, replay)
				}
			}()
		}
	}
}

// TestCorpusSoundness replays the regression corpus under testdata/:
// programs distilled from past fuzzer finds (several by the triage
// shrinker) and hand-written stress shapes (cycles, sharing, NULL-deref
// branch drops). Unlike the fuzz sweep, the corpus is stable across
// seed-RNG changes, so a regression on a previously-found case cannot
// hide behind a reshuffled sweep.
func TestCorpusSoundness(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty regression corpus: no testdata/*.c files")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			prog := compile(t, string(src))
			for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
				res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: 50000, Workers: 4})
				if err != nil {
					t.Fatalf("%s at %s: %v", file, lvl, err)
				}
				CheckTraces(t, prog, res, 10, 42)
			}
		})
	}
}
