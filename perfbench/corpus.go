package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cminic"
	"repro/internal/concrete"
	"repro/internal/ir"
	"repro/internal/verdict"
)

// corpusDir holds the expected-verdict corpus, relative to the
// repository root.
const corpusDir = "internal/verdict/testdata/corpus"

// corpusBatch is the fixed batch of check-corpus: its first tasks give
// total_s and the traced run's counts. It is also the least number of
// tasks a run measures, so the p99 has ten samples beyond it.
const corpusBatch = 1000

// setupReps is how many times check-corpus sets up per run; setup_s is
// the median.
const setupReps = 9

// safeCheckSeeds is how many concrete executions test each SAFE verdict
// on a random program after the timed loop.
const safeCheckSeeds = 32

// corpusTask is one checker input.
type corpusTask struct {
	name   string
	src    string
	expect verdict.Expectations // nil for a random program
}

// taskSource yields the 21 corpus tasks, then distinct random programs
// drawn from the seed: three in four with free(), as in the verdict
// package's differential fuzz test.
type taskSource struct {
	tasks []corpusTask
	rng   *rand.Rand
	seen  map[string]bool
}

func newTaskSource(seed int64, pregen int) (*taskSource, error) {
	files, err := verdict.CorpusFiles(corpusDir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no tasks in %s", corpusDir)
	}
	ts := &taskSource{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		exp, ok, err := verdict.ParseHeader(string(src))
		if err != nil || !ok {
			return nil, fmt.Errorf("%s: no valid verdict header (%v)", f, err)
		}
		ts.tasks = append(ts.tasks, corpusTask{name: f, src: string(src), expect: exp})
	}
	for len(ts.tasks) < pregen {
		ts.generate()
	}
	return ts, nil
}

func (ts *taskSource) generate() {
	for {
		gen := concrete.GenFreeProgram
		if len(ts.tasks)%4 == 3 {
			gen = concrete.GenProgram
		}
		src := gen(rand.New(rand.NewSource(ts.rng.Int63())))
		if !ts.seen[src] {
			ts.seen[src] = true
			ts.tasks = append(ts.tasks, corpusTask{name: fmt.Sprintf("random-%d", len(ts.tasks)), src: src})
			return
		}
	}
}

func (ts *taskSource) task(i int) corpusTask {
	for i >= len(ts.tasks) {
		ts.generate()
	}
	return ts.tasks[i]
}

// checkedTask is what the post-loop SAFE check keeps of a random task:
// the source, not the analyzed program, so the loop's live heap (which
// every level's forced collection walks) does not grow with the run.
type checkedTask struct {
	name string
	src  string
	safe []verdict.Class
}

// corpusRun is the state of the check-corpus loop across its phases.
type corpusRun struct {
	ts    *taskSource
	next  int
	out   *outcome
	safes []checkedTask

	// Count-batch accumulators (the first corpusBatch tasks).
	eng                         engineTotals
	levels                      int
	parse, lower, check, engine time.Duration
	memStart                    runtime.MemStats
	mem                         goMem
	batchSum                    time.Duration
}

// runTask checks one task: source to verdicts is the timed operation.
func (c *corpusRun) runTask(tr *tracer) opSample {
	idx := c.next
	c.next++
	t := c.ts.task(idx)
	if idx == 0 {
		runtime.ReadMemStats(&c.memStart)
	}

	root := tr.begin("op.task")
	start := time.Now()
	sp := root.child("cminic.Parse")
	file, perr := cminic.Parse(t.src)
	sp.end()
	parsed := time.Now()
	var prog *ir.Program
	var lerr error
	if perr == nil {
		sp = root.child("ir.LowerMain")
		prog, lerr = ir.LowerMain(file)
		sp.end()
	}
	lowered := time.Now()
	var rep *verdict.Report
	if perr == nil && lerr == nil {
		sp = root.child("verdict.Check")
		rep = verdict.Check(prog, verdict.Options{})
		sp.end()
	}
	end := time.Now()
	root.end()

	c.out.attempted++
	op := opSample{class: "cold", d: end.Sub(start), traced: root != nil}
	if idx < corpusBatch {
		c.batchSum += op.d
		c.parse += parsed.Sub(start)
		c.lower += lowered.Sub(parsed)
		c.check += end.Sub(lowered)
		if rep != nil {
			c.levels += len(rep.Progressive.Levels)
			for _, lr := range rep.Progressive.Levels {
				c.engine += lr.Duration
				if lr.Result != nil {
					c.eng.add(&lr.Result.Stats)
				}
			}
		}
		if idx == corpusBatch-1 {
			var now runtime.MemStats
			runtime.ReadMemStats(&now)
			c.mem = memDelta(&c.memStart, &now)
		}
	}

	switch {
	case perr != nil || lerr != nil:
		c.out.fail("%s: compile: %v %v", t.name, perr, lerr)
	case rep.Err != nil:
		c.out.fail("%s: analysis failed: %v", t.name, rep.Err)
	case t.expect != nil:
		for _, cl := range verdict.Classes() {
			if v := rep.VerdictFor(cl); !t.expect[cl].Matches(v) {
				c.out.fail("%s: %s: expected %s, got %s", t.name, cl, t.expect[cl], v)
			}
		}
	default:
		ct := checkedTask{name: t.name, src: t.src}
		for _, v := range rep.Verdicts {
			if v.Status == verdict.Safe {
				ct.safe = append(ct.safe, v.Class)
			}
		}
		if len(ct.safe) > 0 {
			c.safes = append(c.safes, ct)
		}
	}
	return op
}

// loop runs tasks until both the time and the batch are used up. With
// a tracer, every other task is traced.
func (c *corpusRun) loop(tr *tracer, budget time.Duration, minOps int) phase {
	var p phase
	start := time.Now()
	for len(p.ops) == 0 || len(p.ops) < minOps || time.Since(start) < budget {
		op := c.runTask(alternate(tr, len(p.ops)))
		op.at = time.Since(start)
		p.ops = append(p.ops, op)
		if time.Since(start) > maxLoop {
			break
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// maxLoop caps a timed loop so that a much slower program still ends a
// run in time.
const maxLoop = 120 * time.Second

// checkSafeClaims replays every random task whose checker settled SAFE
// for some class and fails it if a concrete execution exhibits a fault
// of that class.
func (c *corpusRun) checkSafeClaims() error {
	for _, ct := range c.safes {
		prog, err := verdict.Compile(ct.src)
		if err != nil {
			return fmt.Errorf("%s: %w", ct.name, err)
		}
		observed := make(map[verdict.Class]bool)
		for seed := int64(1); seed <= safeCheckSeeds; seed++ {
			tr, err := concrete.RunSeed(prog, seed)
			if err != nil {
				return fmt.Errorf("%s: concrete run %d: %w", ct.name, seed, err)
			}
			switch tr.Fault {
			case concrete.FaultNullDeref:
				observed[verdict.NullDeref] = true
			case concrete.FaultUseAfterFree, concrete.FaultDoubleFree:
				observed[verdict.UseAfterFree] = true
			}
			if len(tr.Leaks) > 0 {
				observed[verdict.Leak] = true
			}
		}
		for _, cl := range ct.safe {
			if observed[cl] {
				c.out.fail("%s: checker claims %s safe but a concrete run violates it", ct.name, cl)
			}
		}
	}
	return nil
}

// runCorpus measures the memory-safety checker the way shapecheck runs
// it: one task at a time, in one process, with its defaults.
func runCorpus(cfg config) (*outcome, error) {
	out := &outcome{}
	var ts *taskSource
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		ts, err = newTaskSource(cfg.seed, 4*corpusBatch)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	c := &corpusRun{ts: ts, out: out}

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	out.measured = c.loop(tr, cfg.seconds, corpusBatch)
	if cfg.trace {

		n := float64(corpusBatch)
		layers := make(map[string]float64)
		c.eng.file(layers)
		c.mem.file(layers, corpusBatch)
		layers["verdict.levels_per_task"] = float64(c.levels) / n
		layers["cminic.parse_ms"] = msOf(c.parse) / n
		layers["ir.lower_ms"] = msOf(c.lower) / n
		layers["verdict.check_ms"] = msOf(c.check) / n
		layers["verdict.engine_ms"] = msOf(c.engine) / n
		layers["verdict.confirm_ms"] = msOf(c.check-c.engine) / n
		fileTrace(layers, tr, out.measured.ops)
		out.layers = layers
		if err := tr.write(traceFile(cfg, "check-corpus")); err != nil {
			return nil, err
		}
	}
	out.measured.batch = c.batchSum
	out.peakRSSKB = selfPeakRSSKB()
	return out, c.checkSafeClaims()
}
