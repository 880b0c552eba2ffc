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
//	-dot            print the exit RSRSG in Graphviz dot syntax
//	-ir             print the lowered IR and CFG
//	-stmt N         also dump the RSRSG after statement N
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
//	-explain        cross-validate the result against randomized concrete
//	                executions; on a cover failure print the triage report
//	                (failing statement + rejecting node property) and exit 1.
//	                cmd/shapetriage offers the full triage toolkit
//	                (trace seeds, legacy engine, DOT pair, shrinking)
//	-cache-dir D    persistent analysis store: repeat runs of the same
//	                program warm-start from the stored fixpoint, and
//	                re-analysis after an edit reruns only the changed
//	                statements' forward cone
//	-remote URL     run the analysis on a shaped daemon via POST
//	                /analyze instead of in-process; prints the outcome,
//	                visit count and canonical result digest. Incompatible
//	                with the flags that need the in-process result
//	                (-progressive, -dot, -ir, -loops, -stmt, -explain,
//	                -cache-dir — the daemon owns the store)
//	-cpuprofile F   write a pprof CPU profile of the run to F
//	-memprofile F   write a pprof allocation profile to F on exit
//
// Built-in kernel names: matvec, matmat, lu, barneshut, slist, dlist,
// btree.
package main

import (
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
	"repro/internal/triage"
)

func main() {
	level := flag.Int("level", 1, "analysis level 1..3")
	progressive := flag.Bool("progressive", false, "run the progressive L1->L2->L3 analysis")
	dot := flag.Bool("dot", false, "print the exit RSRSG as Graphviz dot")
	loops := flag.Bool("loops", false, "print the per-loop dependence report")
	dumpIR := flag.Bool("ir", false, "print the lowered IR")
	stmt := flag.Int("stmt", -1, "dump the RSRSG after this statement id")
	budget := flag.Int("budget", 0, "node budget (0 = unlimited)")
	stats := flag.Bool("stats", false, "print delta/digest-cache and scheduling counters")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent analysis store (warm-start and edit-delta re-analysis)")
	remote := flag.String("remote", "", "shaped daemon base URL; run the analysis via POST /analyze instead of in-process")
	explain := flag.Bool("explain", false, "cross-validate against concrete traces; print the triage report on a cover failure")
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
			"-loops": *loops, "-explain": *explain,
			"-stmt": *stmt >= 0, "-cache-dir": *cacheDir != "",
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
			printResult(res, *dot, *stmt)
			if *loops {
				fmt.Println("\nloop dependence report:")
				fmt.Print(checker.FormatLoopReports(checker.AnalyzeLoops(res)))
			}
			if *explain {
				explainResult(prog, res)
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
	printResult(res, *dot, *stmt)
	if *loops {
		fmt.Println("\nloop dependence report:")
		fmt.Print(checker.FormatLoopReports(checker.AnalyzeLoops(res)))
	}
	if *explain {
		explainResult(prog, res)
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

// explainResult cross-validates the analysis result against randomized
// concrete executions (fixed budget; cmd/shapetriage exposes the knobs)
// and exits 1 with the triage report when a heap escapes coverage.
func explainResult(prog *ir.Program, res *analysis.Result) {
	const runs, seed = 50, 1
	rep, err := triage.Explain(prog, res, runs, seed)
	if err != nil {
		fatal(err)
	}
	if rep == nil {
		fmt.Printf("\nexplain: %s covers all heaps observed over %d runs\n", res.Level, runs)
		return
	}
	fmt.Printf("\nexplain: SOUNDNESS VIOLATION\n%s", rep.Text())
	os.Exit(1)
}

func printResult(res *analysis.Result, dot bool, stmtID int) {
	fmt.Println("\nexit-state summary:")
	fmt.Print(checker.FormatReport(checker.Report(res)))
	if stmtID >= 0 {
		if set := res.Out[stmtID]; set != nil {
			fmt.Printf("\nRSRSG after statement %d (%s): %d RSGs\n%s\n",
				stmtID, res.Program.Stmt(stmtID), set.Len(), set)
		}
	}
	if dot {
		for i, g := range res.ExitSet().Graphs() {
			fmt.Print(rsg.DOT(g, fmt.Sprintf("exit_%d", i)))
		}
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
