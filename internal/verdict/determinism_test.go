package verdict

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestVerdictDeterminism extends the engine's determinism matrix to
// the verdict layer: over worker counts, the rendered report, the
// per-class alarm lists and the witness texts must be bit-identical.
// The tasks cover the three verdict outcomes and a free-heavy program
// (uaf_unlink_loop exercises OpFree through the parallel transfers).
func TestVerdictDeterminism(t *testing.T) {
	tasks := []string{
		"null_walk_escalates.c",      // escalating safe verdicts
		"uaf_unlink_loop_safe.c",     // free under a loop-built summary
		"uaf_dangling_ref_unknown.c", // surviving alarms, no witness
		"leak_cond_drop_unsafe.c",    // unsafe with a concrete witness
	}
	workers := []int{1, 4}
	for _, task := range tasks {
		src, err := os.ReadFile(filepath.Join(corpusDir, task))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		var want string
		for i, w := range workers {
			rep := Check(prog, Options{
				Analysis: analysis.Options{Workers: w},
			})
			if rep.Err != nil {
				t.Fatalf("%s workers=%d: %v", task, w, rep.Err)
			}
			got := renderReport(rep)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: workers=%d diverged from workers=%d:\n--- want\n%s\n--- got\n%s",
					task, w, workers[0], want, got)
			}
		}
	}
}

// renderReport flattens everything a client of the verdict layer can
// observe into one comparable string.
func renderReport(rep *Report) string {
	var b strings.Builder
	b.WriteString(rep.String())
	for _, v := range rep.Verdicts {
		for _, a := range v.Alarms {
			fmt.Fprintf(&b, "alarm %s\n", a)
		}
		if v.Witness != nil {
			b.WriteString(v.Witness.Text())
		}
	}
	fmt.Fprintf(&b, "levels=%d final=%s\n", len(rep.Progressive.Levels), rep.Progressive.AchievedLevel())
	return b.String()
}
