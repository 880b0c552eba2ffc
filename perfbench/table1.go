package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
)

// cellCommand is the hidden first argument that makes perfbench run
// one Table 1 cell in its own process and report it as JSON. The rsg
// intern and symbol tables are process-global, so a cell run after
// another in the same process would start warm; a fresh process starts
// every cell from the state a shapec invocation starts from.
const cellCommand = "-cell"

// luBudget is the node budget of the lu L2 cell: the paper's 128 MB
// machine, as in benchtab's -lubudget default.
const luBudget = 60000

// childSpan is a span measured inside a cell process.
type childSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// cellReport is what a cell process prints.
type cellReport struct {
	// NS is the compile-to-fixed-point time.
	NS       int64          `json:"ns"`
	Outcome  string         `json:"outcome"`
	Stats    analysis.Stats `json:"stats"`
	GoalsMet bool           `json:"goals_met"`
	Detail   []string       `json:"detail,omitempty"`
	Alloc    uint64         `json:"alloc_bytes"`
	GC       uint32         `json:"gc_cycles"`
	PauseNS  uint64         `json:"gc_pause_ns"`
	Spans    []childSpan    `json:"spans"`
}

// runCell is the cell process; args are kernel and level.
func runCell(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -cell <kernel> <level>")
		return 2
	}
	k := benchprog.ByName(args[0])
	level, err := strconv.Atoi(args[1])
	if k == nil || err != nil || level < 1 || level > 3 {
		fmt.Fprintln(os.Stderr, "perfbench: bad cell", args)
		return 2
	}
	rep, err := measureCell(k, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measureCell compiles and analyzes one kernel at one level with
// shapec's engine defaults, then evaluates the kernel's goals outside
// the timed region.
func measureCell(k *benchprog.Kernel, level int) (*cellReport, error) {
	opts := analysis.Options{Level: rsg.Level(level)}
	if k.Name == "lu" && level > 1 {
		opts.NodeBudget = luBudget
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	rep := &cellReport{}
	mark := func(name string, from time.Time) time.Time {
		now := time.Now()
		rep.Spans = append(rep.Spans, childSpan{name, from.UnixNano(), now.UnixNano()})
		return now
	}
	start := time.Now()
	file, err := cminic.Parse(k.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	t := mark("cminic.Parse", start)
	prog, err := ir.LowerMain(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	prog.Name = k.Name
	t = mark("ir.LowerMain", t)
	res, runErr := analysis.Run(prog, opts)
	end := mark("analysis.Run", t)
	rep.NS = end.Sub(start).Nanoseconds()

	runtime.ReadMemStats(&after)
	m := memDelta(&before, &after)
	rep.Alloc, rep.GC, rep.PauseNS = m.allocBytes, m.gcCycles, m.pauseNS
	if res != nil {
		rep.Stats = res.Stats
	}
	switch {
	case runErr == nil:
		rep.Outcome = "converged"
	case errors.Is(runErr, analysis.ErrBudgetExceeded):
		rep.Outcome = "budget-exceeded"
	default:
		rep.Outcome = runErr.Error()
	}
	if runErr == nil && level == k.PaperLevel {
		rep.GoalsMet = true
		for _, g := range k.Goals {
			ok, detail := g.Met(res)
			if !ok {
				rep.GoalsMet = false
				rep.Detail = append(rep.Detail, g.Name()+": "+detail)
			}
		}
	}
	return rep, nil
}

// cellRun is one cell measured by the parent.
type cellRun struct {
	kernel string
	level  int
	rep    *cellReport
	// start/end bound the cell process, as the parent saw it.
	start, end time.Time
	rssKB      int64
}

// spawnCell runs one cell process.
func spawnCell(self, kernel string, level int) (*cellRun, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, cellCommand, kernel, strconv.Itoa(level))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	run := &cellRun{kernel: kernel, level: level, start: time.Now()}
	err := cmd.Run()
	run.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("cell %s L%d: %w", kernel, level, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssKB = ru.Maxrss
	}
	run.rep = &cellReport{}
	if err := json.Unmarshal(stdout.Bytes(), run.rep); err != nil {
		return nil, fmt.Errorf("cell %s L%d: %w", kernel, level, err)
	}
	return run, nil
}

// runTable1 measures the Table 1 cells, each in a fresh process, in
// passes over all cells (seeded order). A new pass starts only while
// less than three quarters of the measured time is used, so one run is
// at least one pass. Trace mode makes a traced pass followed by an
// untraced one.
func runTable1(cfg config) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Set-up is compiling the inputs: the four kernels. That takes about
	// a millisecond, so it is repeated often enough for its median to
	// outlast a scheduler hiccup.
	out := &outcome{}
	for i := 0; i < 51; i++ {
		start := time.Now()
		for _, k := range benchprog.Kernels() {
			if _, err := k.Compile(); err != nil {
				return nil, err
			}
		}
		out.setup = append(out.setup, time.Since(start))
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	pass := func(tr *tracer) ([]*cellRun, error) {
		var runs []*cellRun
		for _, i := range rng.Perm(len(table1Cells)) {
			c := table1Cells[i]
			run, err := spawnCell(self, c.kernel, c.level)
			if err != nil {
				return nil, err
			}
			out.attempted++
			checkCell(out, run)
			out.peakRSSKB = max(out.peakRSSKB, run.rssKB)
			if root := tr.begin("op.cell"); root != nil {
				for _, s := range run.rep.Spans {
					root.child(s.Name).record(time.Unix(0, s.Start), time.Unix(0, s.End))
				}
				root.record(run.start, run.end)
			}
			runs = append(runs, run)
		}
		return runs, nil
	}
	cellTime := func(runs []*cellRun, traced bool) (ops []opSample, sum time.Duration) {
		for _, r := range runs {
			d := time.Duration(r.rep.NS)
			ops = append(ops, opSample{class: "cold", d: d, traced: traced})
			sum += d
		}
		return ops, sum
	}

	if !cfg.trace {
		start := time.Now()
		var sums []float64
		for len(sums) == 0 || time.Since(start) < cfg.seconds*3/4 {
			runs, err := pass(nil)
			if err != nil {
				return nil, err
			}
			ops, sum := cellTime(runs, false)
			out.measured.ops = append(out.measured.ops, ops...)
			sums = append(sums, sum.Seconds())
		}
		out.measured.elapsed = time.Since(start)
		out.measured.batch = time.Duration(median(sums) * float64(time.Second))
		return out, nil
	}

	// Trace mode: a traced pass, then an untraced one for the overhead.
	tr := &tracer{}
	start := time.Now()
	traced, err := pass(tr)
	if err != nil {
		return nil, err
	}
	untraced, err := pass(nil)
	if err != nil {
		return nil, err
	}
	out.measured.elapsed = time.Since(start)
	tracedOps, sum := cellTime(traced, true)
	untracedOps, _ := cellTime(untraced, false)
	out.measured.ops = append(tracedOps, untracedOps...)
	out.measured.batch = sum

	layers := make(map[string]float64)
	var eng engineTotals
	var mem goMem
	for _, r := range traced {
		key := cellKey(r.kernel, r.level)
		layers["analysis.run_ms."+key] = msOf(time.Duration(r.rep.NS))
		c := r.rep.Stats.Cache
		layers["rsg.intern_hit_ratio."+key] = internHitRatio(c.InternHits, c.InternMisses)
		eng.add(&r.rep.Stats)
		mem.add(goMem{r.rep.Alloc, r.rep.GC, r.rep.PauseNS})
		for _, s := range r.rep.Spans {
			switch s.Name {
			case "cminic.Parse":
				layers["cminic.parse_ms"] += float64(s.End-s.Start) / 1e6 / float64(len(traced))
			case "ir.LowerMain":
				layers["ir.lower_ms"] += float64(s.End-s.Start) / 1e6 / float64(len(traced))
			}
		}
	}
	eng.file(layers)
	mem.file(layers, len(traced))
	fileTrace(layers, tr, out.measured.ops)
	out.layers = layers
	return out, tr.write(traceFile(cfg, "table1"))
}

// checkCell compares a cell against the expected Table 1: every cell
// converges except lu L2, which exceeds its node budget, and each
// kernel's own goals hold at its paper level.
func checkCell(out *outcome, r *cellRun) {
	want := "converged"
	if r.kernel == "lu" && r.level == 2 {
		want = "budget-exceeded"
	}
	if r.rep.Outcome != want {
		out.fail("%s L%d: outcome %q, want %q", r.kernel, r.level, r.rep.Outcome, want)
		return
	}
	if k := benchprog.ByName(r.kernel); want == "converged" && r.level == k.PaperLevel && !r.rep.GoalsMet {
		out.fail("%s L%d: goals not met at the paper level: %v", r.kernel, r.level, r.rep.Detail)
	}
}

// traceFile is where a traced run leaves its spans.
func traceFile(cfg config, workload string) string {
	return fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", workload, cfg.seed)
}
