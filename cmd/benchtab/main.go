// Command benchtab regenerates the paper's Table 1: the time and space
// the shape-analysis compiler needs to analyze the four benchmark codes
// (S.Mat-Vec, S.Mat-Mat, S.LU fact., Barnes-Hut) at each progressive
// level L1/L2/L3.
//
// The paper measured wall-clock minutes and resident megabytes on a
// Pentium III 500 MHz with 128 MB of memory; this reproduction reports
// wall-clock time, total heap allocation during the run, and the peak
// abstraction size (nodes/links/RSGs). The 128 MB exhaustion that the
// paper reports for Sparse LU at L2/L3 is reproduced with a node
// budget (-lubudget) that aborts the run the same way.
//
// With -reps N every cell is measured N times in rep-major order (rep 1
// of every cell, then rep 2, ...), so slow environmental drift hits all
// cells alike, and the table reports per-cell medians. -json FILE
// additionally writes the full machine-readable results.
//
// -persist adds persistent-store modes alongside the storeless cold
// baseline: "warm" measures a re-analysis served entirely from a
// populated store (zero transfers), "edit" measures re-analysis after
// the canonical one-statement tail edit (only the edit's forward cone
// reruns). Store files live under -cache-dir (a temp directory when
// unset) and are populated once per cell before the measurement loop,
// so every rep of a warm/edit cell measures the steady state.
//
// -verdicts appends a memory-safety table: the progressive
// null-deref / use-after-free / leak verdicts for each kernel.
//
// -compare FILE prints per-cell deltas against a previous -json
// snapshot, matching cells by (bench, level, persist mode). Snapshot
// rows that measured engine paths since removed (the RPO scheduler,
// or delta propagation off) are skipped, and so is the peak heap of
// snapshots written before -json recorded it.
//
// Usage:
//
//	benchtab [-kernels matvec,matmat,lu,barneshut] [-levels 1,2,3]
//	         [-lubudget N] [-timeout d] [-workers N] [-visits N]
//	         [-persist cold|cold,warm,edit]
//	         [-cache-dir DIR] [-verdicts] [-reps N] [-json out.json]
//	         [-compare old.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/rsg"
	"repro/internal/store"
	"repro/internal/verdict"
)

// cell is one benchmark configuration: kernel x level x persistence
// mode.
type cell struct {
	kernel *benchprog.Kernel
	lvl    rsg.Level
	// persist is "cold" (storeless baseline), "warm" (re-analysis from
	// a populated store) or "edit" (one-statement tail edit against the
	// base snapshot).
	persist string
	// measured is the kernel each rep compiles and analyzes: the base
	// kernel, or its tail-edited twin for persist == "edit".
	measured *benchprog.Kernel
	opts     analysis.Options

	reps []repMeasurement
}

// repMeasurement is one rep's outcome for one cell. It keeps a copy of
// the run's counters but not its Result, which every run returns, even
// an aborted one: every rep lives until the table is printed, and a
// retained fixed point would count in the peak heap of every cell
// measured after it.
type repMeasurement struct {
	ns         int64
	allocBytes uint64
	allocObjs  uint64
	peakHeap   uint64
	stats      analysis.Stats
	err        error
}

// cellResult is the JSON form of one cell's aggregated result. Delta
// and Sched label the engine path that ran: always delta propagation
// under the WTO scheduler now, while older snapshots also hold rows
// for the removed paths, which printCompare skips. MedianPeakHeap is
// the Space column, the median over reps of the sampled peak heap
// (analysis.LevelReport.PeakHeapBytes); snapshots written before it was
// recorded read 0.
type cellResult struct {
	Bench            string `json:"bench"`
	Level            string `json:"level"`
	Workers          int    `json:"workers"`
	Delta            bool   `json:"delta"`
	Sched            string `json:"sched"`
	Persist          string `json:"persist"`
	Visits           int    `json:"visits"`
	Reps             int    `json:"reps"`
	MedianNs         int64  `json:"median_ns"`
	MedianAllocBytes uint64 `json:"median_alloc_bytes"`
	MedianAllocs     uint64 `json:"median_allocs"`
	MedianPeakHeap   uint64 `json:"median_peak_heap_bytes"`
	DeltaTransfers   int    `json:"delta_transfers"`
	DirtyBuckets     int    `json:"dirty_buckets"`
	VisitsRun        int    `json:"visits_run"`
	StoreMemoHits    int    `json:"store_memo_hits,omitempty"`
	ReusedStmts      int    `json:"reused_statements,omitempty"`
	ReseededStmts    int    `json:"reseeded_statements,omitempty"`
	PeakNodes        int    `json:"peak_nodes"`
	PeakGraphs       int    `json:"peak_graphs"`
	Outcome          string `json:"outcome"`
}

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	Generated  string       `json:"generated"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []cellResult `json:"results"`
	// Verdicts maps kernel name -> class -> settled verdict (only with
	// -verdicts).
	Verdicts map[string]map[string]string `json:"verdicts,omitempty"`
}

func main() {
	kernels := flag.String("kernels", "matvec,matmat,lu,barneshut", "comma-separated kernel names")
	levels := flag.String("levels", "1,2,3", "comma-separated levels")
	luBudget := flag.Int("lubudget", 60000, "node budget for the LU kernel at L2/L3 (models the paper's 128 MB machine; 0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Minute, "per-cell wall-clock guard")
	workers := flag.Int("workers", 0, "worker goroutines per cell (0 = GOMAXPROCS, 1 = sequential)")
	visits := flag.Int("visits", 0, "visit bound per cell (0 = run to the fixed point)")
	persistModes := flag.String("persist", "cold", "persistence modes to measure: any of cold,warm,edit")
	cacheDir := flag.String("cache-dir", "", "directory for persistent analysis stores (default: a temp dir when warm/edit modes run)")
	verdicts := flag.Bool("verdicts", false, "append the memory-safety verdict table (null-deref / use-after-free / leak per kernel)")
	reps := flag.Int("reps", 1, "interleaved repetitions per cell; the table reports medians")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	compare := flag.String("compare", "", "print per-cell deltas vs a previous -json snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measurement loop to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *reps < 1 {
		*reps = 1
	}
	var persists []string
	needStore := false
	for _, p := range strings.Split(*persistModes, ",") {
		p = strings.TrimSpace(p)
		switch p {
		case "cold", "warm", "edit":
			persists = append(persists, p)
			needStore = needStore || p != "cold"
		default:
			fmt.Fprintf(os.Stderr, "benchtab: bad -persist entry %q (want cold/warm/edit)\n", p)
			os.Exit(2)
		}
	}
	if needStore && *cacheDir == "" {
		dir, err := os.MkdirTemp("", "benchtab-store-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		*cacheDir = dir
	}
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}

	var cells []*cell
	var stores []*store.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	for _, name := range strings.Split(*kernels, ",") {
		k := benchprog.ByName(strings.TrimSpace(name))
		if k == nil {
			fmt.Fprintf(os.Stderr, "benchtab: unknown kernel %q\n", name)
			os.Exit(2)
		}
		if _, err := k.Compile(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		for _, ls := range strings.Split(*levels, ",") {
			var lvl rsg.Level
			switch strings.TrimSpace(ls) {
			case "1":
				lvl = rsg.L1
			case "2":
				lvl = rsg.L2
			case "3":
				lvl = rsg.L3
			default:
				fmt.Fprintf(os.Stderr, "benchtab: bad level %q\n", ls)
				os.Exit(2)
			}
			opts := analysis.Options{
				Timeout:   *timeout,
				Workers:   *workers,
				MaxVisits: *visits,
			}
			if k.Name == "lu" && lvl > rsg.L1 {
				opts.NodeBudget = *luBudget
			}
			// Warm and edit cells of the same configuration share one
			// store file, populated by a single cold run below.
			var st *store.Store
			for _, persist := range persists {
				c := &cell{kernel: k, lvl: lvl, persist: persist, measured: k, opts: opts}
				if persist != "cold" {
					if st == nil {
						path := filepath.Join(*cacheDir, fmt.Sprintf("%s-%s.rsgstore", k.Name, lvl))
						var err error
						st, err = store.Open(path)
						if err != nil {
							fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
							os.Exit(1)
						}
						stores = append(stores, st)
					}
					c.opts.Store = st
				}
				if persist == "edit" {
					ek, err := k.TailEdit()
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
						os.Exit(1)
					}
					c.measured = ek
				}
				cells = append(cells, c)
			}
		}
	}

	// Populate pass: every store gets one cold run of its base kernel so
	// each warm/edit rep below measures the steady state.
	for _, c := range cells {
		if c.persist != "warm" {
			continue
		}
		prog, err := c.kernel.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		analysis.RunLevel(prog, c.lvl, nil, c.opts)
	}
	populated := make(map[*store.Store]bool)
	for _, c := range cells {
		if c.persist == "warm" {
			populated[c.opts.Store] = true
		}
	}
	for _, c := range cells {
		if c.persist != "edit" || populated[c.opts.Store] {
			continue
		}
		prog, err := c.kernel.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		analysis.RunLevel(prog, c.lvl, nil, c.opts)
		populated[c.opts.Store] = true
	}

	// Rep-major measurement order: every cell's rep r runs before any
	// cell's rep r+1, so environmental drift is shared across cells.
	for r := 0; r < *reps; r++ {
		for _, c := range cells {
			prog, err := c.measured.Compile()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			// RunLevel forces no collection; the Space column measures
			// from a collected heap.
			runtime.GC()
			rep := analysis.RunLevel(prog, c.lvl, nil, c.opts)
			c.reps = append(c.reps, repMeasurement{
				ns:         rep.Duration.Nanoseconds(),
				allocBytes: rep.AllocBytes,
				allocObjs:  rep.AllocObjects,
				peakHeap:   rep.PeakHeapBytes,
				stats:      rep.Result.Stats,
				err:        rep.Err,
			})
		}
	}

	head := "time"
	if *reps > 1 {
		head = fmt.Sprintf("time(med/%d)", *reps)
	}
	fmt.Printf("%-10s %-4s %-7s %-13s %-12s %-12s %-10s %-26s %s\n",
		"code", "lvl", "persist", head, "peak-heap", "alloc", "allocs/op", "peak(nodes/links/graphs)", "outcome")

	doc := jsonDoc{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, c := range cells {
		cr := c.aggregate(*workers, *visits)
		doc.Results = append(doc.Results, cr)
		st := &c.reps[len(c.reps)-1].stats
		fmt.Printf("%-10s %-4s %-7s %-13s %-12s %-12s %-10s %-26s %s\n",
			c.kernel.Name, c.lvl, c.persist,
			time.Duration(cr.MedianNs).Round(10*time.Millisecond),
			fmtMB(cr.MedianPeakHeap),
			fmtMB(cr.MedianAllocBytes),
			fmtCount(cr.MedianAllocs),
			fmt.Sprintf("%d/%d/%d", st.PeakNodes, st.PeakLinks, st.PeakGraphs),
			cr.Outcome)
	}

	if *verdicts {
		doc.Verdicts = make(map[string]map[string]string)
		fmt.Printf("\n%-10s %-14s %-16s %s\n", "code", "null-deref", "use-after-free", "leak")
		seen := make(map[string]bool)
		for _, c := range cells {
			if seen[c.kernel.Name] {
				continue
			}
			seen[c.kernel.Name] = true
			prog, err := c.kernel.Compile()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			rep := verdict.Check(prog, verdict.Options{
				Analysis: analysis.Options{Timeout: *timeout, Workers: *workers},
			})
			row := make(map[string]string)
			for _, cls := range verdict.Classes() {
				row[cls.String()] = rep.VerdictFor(cls).String()
			}
			doc.Verdicts[c.kernel.Name] = row
			fmt.Printf("%-10s %-14s %-16s %s\n", c.kernel.Name,
				row[verdict.NullDeref.String()],
				row[verdict.UseAfterFree.String()],
				row[verdict.Leak.String()])
		}
	}

	if *compare != "" {
		if err := printCompare(*compare, doc.Results); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d results)\n", *jsonOut, len(doc.Results))
	}
}

// aggregate folds a cell's reps into its JSON result: time,
// allocation and peak heap are per-rep medians; the engine counters are
// taken from the last rep (they are deterministic per configuration).
func (c *cell) aggregate(workers, visits int) cellResult {
	ns := make([]int64, len(c.reps))
	ab := make([]uint64, len(c.reps))
	ao := make([]uint64, len(c.reps))
	ph := make([]uint64, len(c.reps))
	for i, m := range c.reps {
		ns[i], ab[i], ao[i], ph[i] = m.ns, m.allocBytes, m.allocObjs, m.peakHeap
	}
	last := c.reps[len(c.reps)-1]
	cr := cellResult{
		Bench:            c.kernel.Name,
		Level:            c.lvl.String(),
		Workers:          workers,
		Delta:            true,
		Sched:            "wto",
		Persist:          c.persist,
		Visits:           visits,
		Reps:             len(c.reps),
		MedianNs:         medianI64(ns),
		MedianAllocBytes: medianU64(ab),
		MedianAllocs:     medianU64(ao),
		MedianPeakHeap:   medianU64(ph),
		DeltaTransfers:   last.stats.DeltaTransfers,
		DirtyBuckets:     last.stats.DirtyBuckets,
		VisitsRun:        last.stats.Visits,
		StoreMemoHits:    last.stats.StoreMemoHits,
		ReusedStmts:      last.stats.ReusedStatements,
		ReseededStmts:    last.stats.ReseededStatements,
		PeakNodes:        last.stats.PeakNodes,
		PeakGraphs:       last.stats.PeakGraphs,
		Outcome:          "ok",
	}
	if last.err != nil {
		cr.Outcome = last.err.Error()
	}
	return cr
}

// printCompare loads a previous -json snapshot and prints per-cell
// time, allocation and peak heap deltas against the current results,
// matching cells by (bench, level, persist mode). Rows measured on a
// removed engine path are skipped: the RPO scheduler (sched "rpo", or
// no sched at all, as in snapshots from before the WTO scheduler) or
// delta propagation off. A snapshot row without a peak heap prints "-"
// in that column.
func printCompare(path string, cur []cellResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old jsonDoc
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	type key struct{ bench, level, persist string }
	base := make(map[key]cellResult, len(old.Results))
	for _, r := range old.Results {
		if r.Sched != "wto" || !r.Delta {
			continue
		}
		base[key{r.Bench, r.Level, r.Persist}] = r
	}
	fmt.Printf("\ncompare vs %s (generated %s)\n", path, old.Generated)
	fmt.Printf("%-10s %-4s %-7s %-22s %-24s %-24s %s\n",
		"code", "lvl", "persist", "time old->new", "allocs old->new", "peak-heap old->new", "speedup")
	for _, r := range cur {
		o, ok := base[key{r.Bench, r.Level, r.Persist}]
		if !ok {
			continue
		}
		speed := "-"
		if r.MedianNs > 0 {
			speed = fmt.Sprintf("%.2fx", float64(o.MedianNs)/float64(r.MedianNs))
		}
		heap := "-"
		if o.MedianPeakHeap > 0 {
			heap = fmtMB(o.MedianPeakHeap) + " -> " + fmtMB(r.MedianPeakHeap)
		}
		fmt.Printf("%-10s %-4s %-7s %-22s %-24s %-24s %s\n",
			r.Bench, r.Level, r.Persist,
			fmt.Sprintf("%v -> %v", time.Duration(o.MedianNs).Round(time.Millisecond),
				time.Duration(r.MedianNs).Round(time.Millisecond)),
			fmt.Sprintf("%s -> %s", fmtCount(o.MedianAllocs), fmtCount(r.MedianAllocs)),
			heap, speed)
	}
	return nil
}

// fmtMB renders a byte count in MB with one decimal.
func fmtMB(n uint64) string { return fmt.Sprintf("%.1f MB", float64(n)/(1<<20)) }

// fmtCount renders an object count compactly (1234567 -> "1.23M").
func fmtCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

func medianI64(v []int64) int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

func medianU64(v []uint64) uint64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}
