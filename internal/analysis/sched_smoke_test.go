package analysis_test

// Scheduling smoke gate (`make bench-sched`, wired into `make ci`):
// the WTO recursive strategy exists to cut scheduling waste, so on the
// benchmark surfaces — the Figure 1 list pipeline and the Barnes-Hut
// and matvec kernels — it must converge within absolute ceilings on
// both visits and component stabilization rounds. A regression here
// means the component structure or the stabilization loop rotted: one
// extra round of any component trips the stabilization ceiling.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

func TestSchedSmoke(t *testing.T) {
	fixtures := []struct {
		name string
		src  func(t *testing.T) *ir.Program
		// maxVisits and maxStabs are the visit and component
		// stabilization ceilings at L1: the converged counts this gate
		// was set at.
		maxVisits, maxStabs int
	}{
		{"fig1", func(t *testing.T) *ir.Program { return compileSrc(t, fig1PipelineSource) }, 51, 9},
		{"barneshut", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "barneshut"); return p }, 1382, 175},
		{"matvec", func(t *testing.T) *ir.Program { p, _ := compileKernel(t, "matvec"); return p }, 513, 83},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			if testing.Short() && fx.name == "barneshut" {
				t.Skip("short mode")
			}
			res, err := analysis.Run(fx.src(t), analysis.Options{Level: rsg.L1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("visits=%d requeues=%d comp-stabs=%d",
				res.Stats.Visits, res.Stats.Requeues, res.Stats.ComponentStabilizations)
			if res.Stats.Visits > fx.maxVisits {
				t.Errorf("took %d visits to converge, ceiling %d — the recursive strategy schedules worse than it did",
					res.Stats.Visits, fx.maxVisits)
			}
			if res.Stats.ComponentStabilizations > fx.maxStabs {
				t.Errorf("took %d component stabilization rounds, ceiling %d — a component iterates more rounds than it did",
					res.Stats.ComponentStabilizations, fx.maxStabs)
			}
		})
	}
}
