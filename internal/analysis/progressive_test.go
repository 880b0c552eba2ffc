package analysis

import (
	"runtime/metrics"
	"testing"

	"repro/internal/rsg"
)

// unmetGoal never holds, so a progressive run escalates through every
// level.
type unmetGoal struct{}

func (unmetGoal) Name() string               { return "unmet" }
func (unmetGoal) Met(*Result) (bool, string) { return false, "never holds" }

// forcedCollections reads how many garbage collections the process has
// forced (runtime.GC and debug.FreeOSMemory) since it started.
func forcedCollections() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestProgressiveForcesOneCollection pins what a progressive run pays in
// forced collections: one before L1, none before the later levels, and
// none inside RunLevel. No test in this package runs in parallel, so
// the process-wide count moves only by what the measured call forces.
func TestProgressiveForcesOneCollection(t *testing.T) {
	prog := compile(t, optListSrc)

	before := forcedCollections()
	pres := Progressive(prog, []Goal{unmetGoal{}}, Options{})
	forced := forcedCollections() - before
	if len(pres.Levels) != 3 {
		t.Fatalf("progressive run ran %d levels, want 3\n%s", len(pres.Levels), pres.Summary())
	}
	if forced != 1 {
		t.Errorf("a three-level progressive run forced %d collections, want 1", forced)
	}

	before = forcedCollections()
	rep := RunLevel(prog, rsg.L2, nil, Options{})
	forced = forcedCollections() - before
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if forced != 0 {
		t.Errorf("RunLevel forced %d collections, want 0", forced)
	}
}
