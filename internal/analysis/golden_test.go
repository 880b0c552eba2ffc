package analysis_test

// Representation-equivalence property test (DESIGN.md §10): the
// per-statement canonical digests of fig1/barneshut/lu/matvec at every
// level are pinned to golden values. The canonical signature format
// (canon.go) is defined over names, not over any in-memory layout, so
// any faithful re-encoding of the RSG, and any refactor of the engine
// that keeps its semantics, must reproduce these bytes exactly.
//
// Regenerate with REPRO_UPDATE_GOLDEN=1 — but only ever from a tree
// whose digests are already trusted; the file is the contract.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

const goldenDigestFile = "testdata/golden_digests.json"

// goldenFixtures mirrors the determinism suite: fig1 and matvec run to
// their fixed points (matvec's L3 cell is where TOUCH erasure feeds the
// transfer path), barneshut, lu and matmat run under a visit bound
// (partial fixed points are just as representation-sensitive and far
// cheaper). matmat is the cell whose result moves when COMPRESS
// ignores STRUCTURE: at 500 visits its L1 and L2 entries both change.
var goldenFixtures = []struct {
	name      string
	src       func(t *testing.T) *ir.Program
	maxVisits int
}{
	{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, 0},
	{"barneshut", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "barneshut"); return p }, 300},
	{"lu", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "lu"); return p }, 300},
	{"matvec", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "matvec"); return p }, 0},
	{"matmat", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "matmat"); return p }, 500},
}

func TestGoldenDigestEquivalence(t *testing.T) {
	update := os.Getenv("REPRO_UPDATE_GOLDEN") != ""
	golden := map[string]string{}
	if !update {
		raw, err := os.ReadFile(goldenDigestFile)
		if err != nil {
			t.Fatalf("missing golden digests (run with REPRO_UPDATE_GOLDEN=1 to record): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, fx := range goldenFixtures {
		prog := fx.src(t)
		for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
			key := fx.name + "/" + lvl.String()
			// Recorded under the engine's WTO scheduler. The schedule is
			// an input to the result (DESIGN.md §14), so a scheduler
			// change re-records this file.
			res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: fx.maxVisits})
			if err != nil && !(fx.maxVisits > 0 && errors.Is(err, analysis.ErrNoConvergence)) {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = fingerprint(res)
		}
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden fingerprints", len(got))
		return
	}
	if len(got) != len(golden) {
		t.Fatalf("fixture set drifted: %d cells computed, %d recorded", len(got), len(golden))
	}
	for key, want := range golden {
		if got[key] != want {
			t.Errorf("%s: per-statement digests diverged from the pre-refactor encoding\n--- want\n%s\n--- got\n%s",
				key, clip(want), clip(got[key]))
		}
	}
}

// clip bounds a fingerprint dump so a divergence stays readable.
func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "…"
	}
	return s
}
