// Command perfbench is the repository benchmark. It runs one workload
// against the analyzer's public packages for a fixed time, checks every
// output against an independent reference, and prints one JSON object
// as the last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, after building; see run.py):
//
//	perfbench --workload table1|check-corpus|shaped-mix --seed N \
//	          --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a separate traced run. README.md
// defines every metric, the workloads and what they leave out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// scratch is a private directory under the checkout for store
	// files, removed again on exit.
	scratch string
}

// opSample is one timed operation: a Table 1 cell, a checker task or a
// service request. class is "cold", "warm" or "edit".
type opSample struct {
	class  string
	d      time.Duration
	traced bool
	// at is when the operation completed, from the start of the loop.
	at time.Duration
}

// phase is the outcome of one timed loop.
type phase struct {
	ops     []opSample
	elapsed time.Duration
	// batch is the time of the workload's fixed batch of work (total_s).
	batch time.Duration
}

// outcome is what a workload hands back to main.
type outcome struct {
	setup     []time.Duration
	measured  phase
	peakRSSKB int64
	attempted int
	failed    int
	// problems explains every failed check (printed to stderr).
	problems []string
	// layers holds the per-layer metrics (trace mode only).
	layers map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == cellCommand {
		os.Exit(runCell(os.Args[2:]))
	}
	workload := flag.String("workload", "", "table1, check-corpus or shaped-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := map[string]func(config) (*outcome, error){
		"table1":       runTable1,
		"check-corpus": runCorpus,
		"shaped-mix":   runMix,
	}[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload table1|check-corpus|shaped-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scratch: scratch}
	out, err := run(cfg)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	if cfg.trace {
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
	} else {
		for name, m := range endToEnd(out) {
			res.Metrics[name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd derives the end-to-end metrics every workload reports. The
// task_* and req_* families are the same operation statistics under
// the names users of shapecheck and shaped know them by; a request
// class the workload does not issue (warm and edit outside shaped-mix)
// falls back to the cold figure, because without a store a repeat or an
// edit is served by the same cold path.
//
// A loop long enough to give every fifth of it opsPerWindow operations
// is cut into five windows by completion time; each operation statistic
// is then the median of its five per-window values, so a burst of
// interference on the machine moves one window, not the result.
func endToEnd(o *outcome) map[string]metric {
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	ms := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"ok_frac":     {float64(o.attempted-o.failed) / float64(o.attempted), "fraction"},
		"peak_rss_mb": {float64(o.peakRSSKB) / 1024, "MB"},
		"total_s":     {o.measured.batch.Seconds(), "s"},
	}
	n := 1
	if len(o.measured.ops) >= windows*opsPerWindow {
		n = windows
	}
	span := o.measured.elapsed / time.Duration(n)
	stats := make(map[string][]float64)
	for w := 0; w < n; w++ {
		var all []float64
		byClass := make(map[string][]float64)
		for _, op := range o.measured.ops {
			if n > 1 && min(int(op.at/span), n-1) != w {
				continue
			}
			all = append(all, msOf(op.d))
			byClass[op.class] = append(byClass[op.class], msOf(op.d))
		}
		classP50 := func(c string) float64 {
			if v := byClass[c]; len(v) > 0 {
				return percentile(v, 50)
			}
			return percentile(byClass["cold"], 50)
		}
		p50, p99 := percentile(all, 50), percentile(all, 99)
		rate := float64(len(all)) / span.Seconds()
		for name, v := range map[string]float64{
			"cell_geomean_ms": geomean(all),
			"task_p50_ms":     p50,
			"task_p99_ms":     p99,
			"tasks_per_s":     rate,
			"req_p50_ms":      p50,
			"req_p99_ms":      p99,
			"requests_per_s":  rate,
			"warm_p50_ms":     classP50("warm"),
			"edit_p50_ms":     classP50("edit"),
			"cold_p50_ms":     classP50("cold"),
		} {
			stats[name] = append(stats[name], v)
		}
	}
	for name, v := range stats {
		unit := "ms"
		if name == "tasks_per_s" || name == "requests_per_s" {
			unit = "1/s"
		}
		ms[name] = metric{median(v), unit}
	}
	return ms
}

// windows and opsPerWindow set when endToEnd cuts a loop into windows:
// a p99 needs a thousand samples to have ten beyond it.
const (
	windows      = 5
	opsPerWindow = 1000
)

// alternate returns the tracer for the i-th operation of a loop: in a
// traced run every other operation is traced, so the traced and the
// untraced operations sample the same stretch of the run and their
// difference is the tracing overhead.
func alternate(tr *tracer, i int) *tracer {
	if i%2 == 1 {
		return nil
	}
	return tr
}

// fileTrace records each layer's self time per traced operation as
// self_ms.<layer>, the spans per traced operation, and the tracing
// overhead: the traced operations' median time against the untraced
// ones'.
func fileTrace(layers map[string]float64, tr *tracer, ops []opSample) {
	var traced, untraced []float64
	for _, op := range ops {
		if op.traced {
			traced = append(traced, msOf(op.d))
		} else {
			untraced = append(untraced, msOf(op.d))
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	n := float64(len(traced))
	for layer, d := range tr.selfTimes() {
		layers["self_ms."+layer] = msOf(d) / n
	}
	layers["trace.spans_per_op"] = float64(len(tr.spans)) / n
	layers["trace.overhead_pct"] = 100 * (percentile(traced, 50)/percentile(untraced, 50) - 1)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// selfPeakRSSKB is this process's peak resident set size.
func selfPeakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// goMem is the Go runtime's allocation and collection work between two
// MemStats readings.
type goMem struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
}

func memDelta(before, after *runtime.MemStats) goMem {
	return goMem{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		pauseNS:    after.PauseTotalNs - before.PauseTotalNs,
	}
}

func (m *goMem) add(o goMem) {
	m.allocBytes += o.allocBytes
	m.gcCycles += o.gcCycles
	m.pauseNS += o.pauseNS
}

// file records the runtime layer's metrics over the count batch.
func (m goMem) file(layers map[string]float64, ops int) {
	layers["go.alloc_mb"] = float64(m.allocBytes) / (1 << 20)
	layers["go.gc_cycles"] = float64(m.gcCycles)
	layers["go.gc_pause_ms"] = float64(m.pauseNS) / 1e6
	if ops > 0 {
		layers["go.gc_cycles_per_task"] = float64(m.gcCycles) / float64(ops)
	}
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
