package analysis_test

// Tests for the semi-naïve delta engine (DESIGN.md §8): the delta path
// must actually carry the run.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rsg"
)

// TestDeltaPathCarriesRun guards the delta engine against vacuity: a
// default bounded Barnes-Hut run must serve statement visits from the
// delta path and re-reduce dirty alias buckets incrementally.
func TestDeltaPathCarriesRun(t *testing.T) {
	prog, _ := compileKernel(t, "barneshut")
	res, err := analysis.Run(prog, analysis.Options{Level: rsg.L1, MaxVisits: 1500, Workers: 1})
	if err != nil && !errors.Is(err, analysis.ErrNoConvergence) {
		t.Fatal(err)
	}
	if res.Stats.DeltaTransfers == 0 {
		t.Fatal("default run never used the delta path")
	}
	if res.Stats.DirtyBuckets == 0 {
		t.Error("delta run re-reduced no alias buckets — the accumulator never saw a delta")
	}
	if !strings.Contains(res.Stats.CacheSummary(), "delta(") {
		t.Errorf("CacheSummary lacks the delta counters: %s", res.Stats.CacheSummary())
	}
}
