// Command shapetriage turns a soundness-fuzzer find into an actionable
// bug report: it runs the analysis on a mini-C program (a file, a
// built-in kernel or a regenerated fuzz seed), cross-validates the
// result against randomized concrete executions, and when a reachable
// heap escapes the computed RSRSG it replays the embedding search with
// full introspection — the report names the failing statement and the
// exact node property (SELIN/SELOUT, SHARED/SHSEL, CYCLELINKS, SPATH,
// ...) that rejected the nearest embedding. DESIGN.md §11 describes
// the workflow.
//
// Usage:
//
//	shapetriage [flags] <file.c | kernel-name>
//	shapetriage [flags] -genseed N
//
//	-level N     analysis level 1..3 (default 1)
//	-runs N      randomized concrete executions to cross-validate (default 50)
//	-seed N      PRNG seed for the concrete traces (default 1)
//	-genseed N   regenerate the fuzzer program of seed N instead of
//	             reading a file (TestFuzzSoundness prints the whole
//	             replay command on a failure)
//	-gen G       with -genseed, the generator: plain (default), free
//	             (mixes in free()) or wide (wide structs)
//	-dot         print the side-by-side DOT pair (concrete heap +
//	             nearest RSG, best partial embedding highlighted)
//	-shrink      delta-debug the program to a minimal case that still
//	             fails, and print it
//	-o FILE      with -shrink, also write the minimal case to FILE
//	             (e.g. internal/concrete/testdata/x.c)
//	-workers N   analysis worker goroutines (0 = GOMAXPROCS)
//
// Built-in kernel names are shapec's: matvec, matmat, lu, barneshut,
// slist, dlist, btree.
//
// Exit status: 0 when the analysis covers every observed heap, 1 on a
// soundness violation (the report is printed), 2 on usage or input
// errors.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/cminic"
	"repro/internal/concrete"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/triage"
)

func main() {
	level := flag.Int("level", 1, "analysis level 1..3")
	runs := flag.Int("runs", 50, "randomized concrete executions")
	seed := flag.Int64("seed", 1, "PRNG seed for the concrete traces")
	genSeed := flag.Int64("genseed", 0, "regenerate the fuzzer program of this seed")
	gen := flag.String("gen", "plain", "with -genseed, the generator: plain, free or wide")
	dot := flag.Bool("dot", false, "print the heap/RSG DOT pair on failure")
	shrink := flag.Bool("shrink", false, "delta-debug to a minimal failing program")
	outFile := flag.String("o", "", "with -shrink, write the minimal case here")
	workers := flag.Int("workers", 0, "analysis worker goroutines")
	flag.Parse()

	src, name, err := loadSource(*genSeed, *gen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapetriage:", err)
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := analysis.Options{Level: rsg.Level(*level), Workers: *workers}
	if opts.Level < rsg.L1 || opts.Level > rsg.L3 {
		fatal(fmt.Errorf("invalid level %d", *level))
	}

	prog, err := compile(src)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	res, err := analysis.Run(prog, opts)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	rep, err := triage.Explain(prog, res, *runs, *seed)
	if err != nil {
		fatal(err)
	}
	if rep == nil {
		fmt.Printf("%s: %s covers all heaps observed over %d runs\n", name, opts.Level, *runs)
		return
	}

	fmt.Print(rep.Text())
	if *dot {
		fmt.Print(rep.DOT())
	}

	if *shrink {
		pred := triage.SoundnessPredicate(opts, *runs, *seed)
		min, err := triage.Shrink(src, pred)
		if err != nil {
			fatal(err)
		}
		n0, _ := triage.StmtCount(src)
		n1, _ := triage.StmtCount(min)
		fmt.Printf("\nshrunk %d -> %d statements:\n%s", n0, n1, min)
		if *outFile != "" {
			if err := os.WriteFile(*outFile, []byte(min), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *outFile)
		}
	}
	os.Exit(1)
}

// generators maps -gen names to the soundness fuzzer's generators.
var generators = map[string]func(*rand.Rand) string{
	"plain": concrete.GenProgram,
	"free":  concrete.GenFreeProgram,
	"wide":  concrete.GenWideProgram,
}

func loadSource(genSeed int64, gen string) (src, name string, err error) {
	if genSeed != 0 {
		g, ok := generators[gen]
		if !ok {
			return "", "", fmt.Errorf("unknown generator %q: want plain, free or wide", gen)
		}
		return g(rand.New(rand.NewSource(genSeed))), fmt.Sprintf("genseed %d (%s)", genSeed, gen), nil
	}
	if flag.NArg() != 1 {
		return "", "", fmt.Errorf("usage: shapetriage [flags] <file.c | kernel-name>  |  shapetriage [flags] -genseed N")
	}
	arg := flag.Arg(0)
	if k := benchprog.ByName(arg); k != nil {
		return k.Source, k.Name, nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", "", err
	}
	return string(b), arg, nil
}

func compile(src string) (*ir.Program, error) {
	file, err := cminic.Parse(src)
	if err != nil {
		return nil, err
	}
	return ir.LowerMain(file)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shapetriage:", err)
	os.Exit(2)
}
