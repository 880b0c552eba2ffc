// Command shapec is the shape-analysis compiler CLI: it parses a mini-C
// source file (or a named built-in kernel), runs the RSRSG analysis at
// a fixed level or progressively, and reports the resulting
// data-structure properties.
//
// Usage:
//
//	shapec [flags] <file.c | kernel-name>
//
//	-level N        analysis level 1..3 (default 1); ignored with -progressive
//	-progressive    escalate L1 -> L2 -> L3 until the kernel's goals hold
//	-dot            print RSRSGs in Graphviz dot syntax: the selected
//	                statements' (-stmt, -line), else the exit state's
//	-ir             print the lowered IR and CFG
//	-stmt N         also dump the RSRSG after IR statement N
//	-line N         also dump the RSRSG after every IR statement lowered
//	                from source line N (a C statement can expand to
//	                several); -stmt and -line are exclusive, and a
//	                selection that names no statement is a usage error
//	-budget N       abort when the abstraction exceeds N live nodes
//	-stats          print cache counters (delta transfers, dirty
//	                buckets, graphs frozen, digest cache hits, interning)
//	                plus scheduling counters (requeues, component
//	                stabilizations, widenings) and the visits-per-
//	                statement histogram; with -progressive, one block
//	                per level
//	-workers N      goroutines for per-graph transfers and bucket
//	                reductions (0 = GOMAXPROCS, 1 = sequential; results
//	                are identical at any value)
//	-cache-dir D    persistent analysis store: repeat runs of the same
//	                program warm-start from the stored fixpoint, and
//	                re-analysis after an edit reruns only the changed
//	                statements' forward cone
//	-remote URL     run the analysis on a shaped daemon via POST
//	                /analyze instead of in-process; prints the outcome,
//	                visit count and canonical result digest. Incompatible
//	                with the flags that need the in-process result
//	                (-progressive, -dot, -ir, -loops, -stmt, -line,
//	                -cache-dir — the daemon owns the store)
//	-cpuprofile F   write a pprof CPU profile of the run to F
//	-memprofile F   write a pprof allocation profile to F on exit
//
// Built-in kernel names: matvec, matmat, lu, barneshut, slist, dlist,
// btree. To cross-validate a result against concrete executions, run
// cmd/shapetriage on the same file or kernel name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/checker"
	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	level := flag.Int("level", 1, "analysis level 1..3")
	progressive := flag.Bool("progressive", false, "run the progressive L1->L2->L3 analysis")
	dot := flag.Bool("dot", false, "print the exit RSRSG as Graphviz dot")
	loops := flag.Bool("loops", false, "print the per-loop dependence report")
	dumpIR := flag.Bool("ir", false, "print the lowered IR")
	stmt := flag.Int("stmt", -1, "dump the RSRSG after this statement id")
	line := flag.Int("line", -1, "dump the RSRSG after every statement of this source line")
	budget := flag.Int("budget", 0, "node budget (0 = unlimited)")
	stats := flag.Bool("stats", false, "print delta/digest-cache and scheduling counters")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent analysis store (warm-start and edit-delta re-analysis)")
	remote := flag.String("remote", "", "shaped daemon base URL; run the analysis via POST /analyze instead of in-process")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the analysis to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shapec [flags] <file.c | kernel-name>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	arg := flag.Arg(0)

	if *remote != "" {
		for name, set := range map[string]bool{
			"-progressive": *progressive, "-dot": *dot, "-ir": *dumpIR,
			"-loops": *loops, "-stmt": *stmt != -1, "-line": *line != -1,
			"-cache-dir": *cacheDir != "",
		} {
			if set {
				fatal(fmt.Errorf("%s is not supported with -remote (the daemon owns the store and returns digests, not graphs)", name))
			}
		}
		os.Exit(runRemote(*remote, arg, *level, *budget, *stats))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	var prog *ir.Program
	var goals []analysis.Goal
	if k := benchprog.ByName(arg); k != nil {
		p, err := k.Compile()
		if err != nil {
			fatal(err)
		}
		prog = p
		goals = k.Goals
		fmt.Printf("kernel %s — %s\n", k.Name, k.Title)
	} else {
		src, err := os.ReadFile(arg)
		if err != nil {
			fatal(err)
		}
		file, err := cminic.Parse(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s:%v", arg, err))
		}
		p, err := ir.LowerMain(file)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", arg, err))
		}
		prog = p
		goals = []analysis.Goal{checker.NonEmptyExit{}}
		// The store's edit-delta lookup keys on the program name; the
		// source path is the natural "same program, next version"
		// identity for files.
		prog.Name = arg
	}

	if *dumpIR {
		fmt.Println(prog)
	}
	selected, err := selectStmts(prog, *stmt, *line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapec:", err)
		os.Exit(2)
	}

	opts := analysis.Options{NodeBudget: *budget, Workers: *workers}
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fatal(err)
		}
		st, err := store.Open(filepath.Join(*cacheDir, "shape.rsgstore"))
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		opts.Store = st
	}

	if *progressive {
		pres := analysis.Progressive(prog, goals, opts)
		fmt.Print(pres.Summary())
		if *stats {
			for _, rep := range pres.Levels {
				if rep.Result != nil {
					printStats(rep.Level.String(), &rep.Result.Stats)
				}
			}
		}
		if res := pres.Final.Result; res != nil {
			printResult(res, *dot, selected)
			if *loops {
				fmt.Println("\nloop dependence report:")
				fmt.Print(checker.FormatLoopReports(checker.AnalyzeLoops(res)))
			}
		}
		return
	}

	opts.Level = rsg.Level(*level)
	if opts.Level < rsg.L1 || opts.Level > rsg.L3 {
		fatal(fmt.Errorf("invalid level %d", *level))
	}
	start := time.Now()
	res, err := analysis.Run(prog, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %v, %d visits, peak %d nodes / %d links / %d graphs\n",
		opts.Level, time.Since(start).Round(time.Millisecond), res.Stats.Visits,
		res.Stats.PeakNodes, res.Stats.PeakLinks, res.Stats.PeakGraphs)
	if *stats {
		printStats(opts.Level.String(), &res.Stats)
	}
	for _, g := range goals {
		ok, detail := g.Met(res)
		fmt.Printf("goal %-35s %-5v %s\n", g.Name(), ok, detail)
	}
	printResult(res, *dot, selected)
	if *loops {
		fmt.Println("\nloop dependence report:")
		fmt.Print(checker.FormatLoopReports(checker.AnalyzeLoops(res)))
	}
}

// printStats renders one level's counters: caches, scheduling, and the
// visits-per-statement histogram (DESIGN.md §14 — scheduling
// regressions show up here without a profiler).
func printStats(level string, s *analysis.Stats) {
	fmt.Printf("stats %s: %s\n", level, s.CacheSummary())
	fmt.Printf("stats %s: %s\n", level, s.SchedSummary())
	if h := s.VisitHistogram(); h != "" {
		fmt.Printf("stats %s: visits/stmt %s\n", level, h)
	}
}

// selectStmts resolves -stmt and -line (-1 when unset) to the IR
// statements to dump. An ID outside the program, a line that lowers to
// no statement, or both flags at once is a usage error.
func selectStmts(prog *ir.Program, stmt, line int) ([]int, error) {
	switch {
	case stmt != -1 && line != -1:
		return nil, errors.New("-stmt and -line are exclusive")
	case stmt != -1:
		if stmt < 0 || stmt >= len(prog.Stmts) {
			return nil, fmt.Errorf("-stmt %d: statement IDs run from 0 to %d", stmt, len(prog.Stmts)-1)
		}
		return []int{stmt}, nil
	case line != -1:
		var ids []int
		for _, s := range prog.Stmts {
			if s.Line == line {
				ids = append(ids, s.ID)
			}
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("-line %d: no statement at that line", line)
		}
		return ids, nil
	}
	return nil, nil
}

// printResult renders the exit-state summary, then the selected
// statements' RSRSGs as text, or as dot with -dot. With -dot and no
// selection it renders the exit RSRSG.
func printResult(res *analysis.Result, dot bool, selected []int) {
	fmt.Println("\nexit-state summary:")
	fmt.Print(checker.FormatReport(checker.Report(res)))
	for _, id := range selected {
		set := res.Out[id]
		if set == nil {
			fmt.Printf("\nRSRSG after statement %d (%s): unreachable\n", id, res.Program.Stmt(id))
			continue
		}
		fmt.Printf("\nRSRSG after statement %d (%s): %d RSGs\n", id, res.Program.Stmt(id), set.Len())
		if dot {
			printDOT(set.Graphs(), fmt.Sprintf("s%d", id))
		} else {
			fmt.Println(set)
		}
	}
	if dot && len(selected) == 0 {
		printDOT(res.ExitSet().Graphs(), "exit")
	}
}

func printDOT(graphs []*rsg.Graph, prefix string) {
	for i, g := range graphs {
		fmt.Print(rsg.DOT(g, fmt.Sprintf("%s_%d", prefix, i)))
	}
}

// runRemote ships the program to a shaped daemon and renders its
// /analyze response; the local exit-code contract is preserved (0 on
// convergence, 1 on any analysis failure, including a 504 timeout).
func runRemote(base, arg string, level, budget int, stats bool) int {
	var name, source string
	if k := benchprog.ByName(arg); k != nil {
		name, source = k.Name, k.Source
		fmt.Printf("kernel %s — %s\n", k.Name, k.Title)
	} else {
		src, err := os.ReadFile(arg)
		if err != nil {
			fatal(err)
		}
		name, source = arg, string(src)
	}
	cl := &service.Client{BaseURL: base}
	resp, err := cl.Analyze(service.AnalyzeRequest{
		Name:       name,
		Source:     source,
		Level:      level,
		NodeBudget: budget,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (remote): %s, %d visits, %v, %d statements reused, result digest %s\n",
		resp.Level, resp.Outcome, resp.Visits,
		(time.Duration(resp.DurationUS) * time.Microsecond).Round(time.Millisecond),
		resp.ReusedStatements, resp.ResultDigest)
	if stats {
		fmt.Printf("stats %s: %s\n", resp.Level, resp.CacheSummary)
		fmt.Printf("stats %s: %s\n", resp.Level, resp.SchedSummary)
	}
	if resp.Outcome != "converged" {
		fmt.Fprintln(os.Stderr, "shapec:", resp.Error)
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shapec:", err)
	os.Exit(1)
}
