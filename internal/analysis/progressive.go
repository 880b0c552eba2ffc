package analysis

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/absem"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// Goal is an accuracy requirement evaluated on an analysis result. The
// progressive driver escalates to the next level while any goal is
// unmet — the paper's "the compiler has to focus more" criterion
// (Sect. 5: the sparse codes are accurate at L1; Barnes-Hut needs L3).
type Goal interface {
	// Name identifies the goal in reports.
	Name() string
	// Met evaluates the goal; detail explains the verdict.
	Met(res *Result) (ok bool, detail string)
}

// LevelGated marks a goal that is undefined below a minimum analysis
// level (e.g. a TOUCH-based criterion below L3). The progressive
// driver reports such a goal as unmet below its minimum level without
// evaluating it, and callers that pin a single level can skip gated
// goals outright instead of guessing from the failure detail.
type LevelGated interface {
	Goal
	// MinLevel is the lowest level at which Met is meaningful.
	MinLevel() rsg.Level
}

// LevelReport describes one level's run within a progressive analysis.
type LevelReport struct {
	Level rsg.Level
	// Result is never nil: an aborted run (e.g. budget exceeded) also
	// returns its Result, holding the out-states reached, and sets Err.
	Result *Result
	Err    error
	// GoalsMet reports whether every goal held at this level.
	GoalsMet bool
	// GoalDetail holds one line per goal.
	GoalDetail []string
	// Duration is the wall-clock time of the level.
	Duration time.Duration
	// AllocBytes is the total heap allocation performed by the level's
	// run; AllocObjects the matching object count (runtime Mallocs
	// delta). PeakHeapBytes is the largest HeapAlloc sampled every
	// 50 ms during the run and once at its end — the closer analogue of
	// the paper's resident "Space (MB)" column (see EXPERIMENTS.md).
	// HeapAlloc counts garbage not yet collected, and RunLevel does not
	// collect first, so the figure also holds whatever the heap held
	// when the level started: within a progressive run, L2 and L3 start
	// on the garbage of the levels before them.
	AllocBytes    uint64
	AllocObjects  uint64
	PeakHeapBytes uint64
}

// ProgressiveResult is the outcome of a progressive analysis.
type ProgressiveResult struct {
	Levels []LevelReport
	// Final is the last level run.
	Final *LevelReport
}

// AchievedLevel returns the level of the last completed run.
func (p *ProgressiveResult) AchievedLevel() rsg.Level {
	if p.Final == nil {
		return 0
	}
	return p.Final.Level
}

// Progressive runs the paper's progressive analysis: L1 first, then L2
// and L3, stopping as soon as every goal is met (or after L3). opts
// applies to every level; opts.Level is ignored. It forces one garbage
// collection, before L1, so L1's memory figures start from a collected
// heap; L2 and L3 start from whatever the levels before them left.
func Progressive(prog *ir.Program, goals []Goal, opts Options) *ProgressiveResult {
	out := &ProgressiveResult{}
	runtime.GC()
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		rep := RunLevel(prog, lvl, goals, opts)
		out.Levels = append(out.Levels, rep)
		out.Final = &out.Levels[len(out.Levels)-1]
		if rep.Err == nil && rep.GoalsMet {
			break
		}
	}
	return out
}

// RunLevel executes one level with time and allocation measurement and
// goal evaluation. It measures from whatever heap it finds: it forces
// no collection, so a caller that wants PeakHeapBytes to start from a
// collected baseline calls runtime.GC first.
func RunLevel(prog *ir.Program, lvl rsg.Level, goals []Goal, opts Options) LevelReport {
	opts.Level = lvl
	rep := LevelReport{Level: lvl}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	// Sample the heap (HeapAlloc) while the run executes.
	stopSampler := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var peak uint64
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopSampler:
				peakCh <- peak
				return
			case <-ticker.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()

	res, err := Run(prog, opts)

	rep.Duration = time.Since(start)
	close(stopSampler)
	rep.PeakHeapBytes = <-peakCh
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > rep.PeakHeapBytes {
		rep.PeakHeapBytes = after.HeapAlloc
	}
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.AllocObjects = after.Mallocs - before.Mallocs

	rep.Result = res
	rep.Err = err
	if err != nil {
		rep.GoalsMet = false
		rep.GoalDetail = append(rep.GoalDetail, fmt.Sprintf("run failed: %v", err))
		return rep
	}
	rep.GoalsMet = true
	for _, g := range goals {
		if lg, isGated := g.(LevelGated); isGated && lvl < lg.MinLevel() {
			rep.GoalsMet = false
			rep.GoalDetail = append(rep.GoalDetail,
				fmt.Sprintf("%-30s %-5v requires %s", g.Name(), false, lg.MinLevel()))
			continue
		}
		ok, detail := g.Met(res)
		rep.GoalDetail = append(rep.GoalDetail,
			fmt.Sprintf("%-30s %-5v %s", g.Name(), ok, detail))
		if !ok {
			rep.GoalsMet = false
		}
	}
	return rep
}

// PipelineStep pushes an RSRSG through the abstract semantics of one
// destructive sentence, "x->sel = NULL": the full Fig. 2 per-sentence
// pipeline (division, pruning, materialization, interpretation,
// compression and union). Exposed for the figure-reproduction
// benchmarks and tests.
func PipelineStep(lvl rsg.Level, in *rsrsg.Set, x, sel string) *rsrsg.Set {
	ctx := &absem.Context{Level: lvl, Induction: rsg.NewPvarSet()}
	return absem.XSelNil(ctx, in, x, sel)
}

// Summary renders a human-readable progressive report.
func (p *ProgressiveResult) Summary() string {
	var b strings.Builder
	for _, rep := range p.Levels {
		fmt.Fprintf(&b, "%s: time=%v peak-heap=%.1f MB alloc=%.1f MB", rep.Level,
			rep.Duration.Round(time.Millisecond),
			float64(rep.PeakHeapBytes)/(1<<20), float64(rep.AllocBytes)/(1<<20))
		if rep.Result != nil {
			fmt.Fprintf(&b, " visits=%d peak(nodes=%d links=%d graphs=%d)",
				rep.Result.Stats.Visits, rep.Result.Stats.PeakNodes,
				rep.Result.Stats.PeakLinks, rep.Result.Stats.PeakGraphs)
			fmt.Fprintf(&b, " %s", rep.Result.Stats.CacheSummary())
		}
		if rep.Err != nil {
			fmt.Fprintf(&b, " ERROR: %v", rep.Err)
		}
		fmt.Fprintf(&b, " goals-met=%v\n", rep.GoalsMet)
		for _, d := range rep.GoalDetail {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	return b.String()
}
