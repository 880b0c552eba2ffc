// Package verdict implements memory-safety verdict clients over the
// shape analysis: null-dereference, use-after-free and memory-leak
// checkers phrased as queries on the per-statement RSRSGs. Each checker
// is an analysis.Goal, so the progressive driver escalates per query
// exactly as for the parallelization clients: a program that is UNKNOWN
// at L1 (the cheap C_SPATH0 summarization merges the evidence away) can
// settle SAFE at L2 or L3. Verdicts record the level that settled them;
// alarms that survive the final level are confirmed against randomized
// concrete executions and either become UNSAFE (with a concrete witness
// trace, rendered by triage) or stay UNKNOWN. DESIGN.md §12 documents
// the obligations each checker discharges and why they are sound.
package verdict

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/concrete"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/triage"
)

// Class identifies one memory-safety property.
type Class int

const (
	// NullDeref: no statement dereferences a pvar that may be NULL.
	NullDeref Class = iota
	// UseAfterFree: no free() leaves a reference behind — covers
	// dangling dereferences and double frees.
	UseAfterFree
	// Leak: no cell ever becomes unreachable while still allocated, and
	// every exit configuration keeps its cells reachable.
	Leak
	numClasses
)

// String returns the corpus-header key of the class.
func (c Class) String() string {
	switch c {
	case NullDeref:
		return "null-deref"
	case UseAfterFree:
		return "use-after-free"
	case Leak:
		return "leak"
	}
	return "?"
}

// Classes lists every class in canonical order.
func Classes() []Class { return []Class{NullDeref, UseAfterFree, Leak} }

// Status is the outcome of one class's query.
type Status int

const (
	// Safe: the analysis proved the property at some level.
	Safe Status = iota
	// Unsafe: a concrete execution exhibits the fault.
	Unsafe
	// Unknown: alarms survived the final level but no concrete
	// execution confirmed them.
	Unknown
)

// String returns "safe", "unsafe" or "unknown".
func (s Status) String() string {
	switch s {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	case Unknown:
		return "unknown"
	}
	return "?"
}

// Verdict is the settled outcome of one class.
type Verdict struct {
	Class  Class
	Status Status
	// Level is the analysis level that settled a Safe verdict (the
	// first level whose result carries no alarm for the class).
	Level rsg.Level
	// Alarms holds the surviving alarms of the final level for Unsafe
	// and Unknown verdicts.
	Alarms []Alarm
	// Witness is the concrete counterexample backing an Unsafe verdict.
	Witness *triage.Witness
}

// String renders the verdict in the corpus-header syntax: "safe@L2",
// "unsafe", "unknown".
func (v Verdict) String() string {
	if v.Status == Safe {
		return fmt.Sprintf("safe@%s", v.Level)
	}
	return v.Status.String()
}

// Alarm is one possible property violation reported by a checker.
type Alarm struct {
	Class  Class
	StmtID int
	Line   int
	// Detail explains the abstract evidence.
	Detail string
}

// String renders the alarm.
func (a Alarm) String() string {
	return fmt.Sprintf("%s at stmt %d (line %d): %s", a.Class, a.StmtID, a.Line, a.Detail)
}

// Checker is a memory-safety query: an analysis.Goal whose Met
// criterion is "no alarm", plus the alarm enumeration the verdict
// driver re-evaluates per level.
type Checker interface {
	analysis.Goal
	// Class identifies the property the checker decides.
	Class() Class
	// Alarms enumerates the surviving possible violations,
	// deterministically ordered.
	Alarms(res *analysis.Result) []Alarm
}

// CheckerFor returns the checker deciding the class.
func CheckerFor(c Class) Checker {
	switch c {
	case NullDeref:
		return NullSafe{}
	case UseAfterFree:
		return FreeSafe{}
	case Leak:
		return LeakFree{}
	}
	return nil
}

// Options configures Check.
type Options struct {
	// Analysis applies to every level of the progressive run;
	// Analysis.Level is ignored.
	Analysis analysis.Options
	// ConfirmRuns is the number of randomized concrete executions used
	// to confirm surviving alarms (default 64). When Analysis.Timeout is
	// set, confirmation also stops once it has run that long; a class no
	// execution confirmed by then stays Unknown.
	ConfirmRuns int
	// ConfirmSeed seeds the confirmation executions (default 1).
	ConfirmSeed int64
}

// Report is the outcome of a full memory-safety check.
type Report struct {
	Prog *ir.Program
	// Progressive is the underlying progressive run (its Levels retain
	// the per-level results and goal details).
	Progressive *analysis.ProgressiveResult
	// Verdicts holds one settled verdict per class, in Classes() order.
	Verdicts []Verdict
	// Err is set when every level of the progressive run failed; the
	// verdicts are all Unknown in that case.
	Err error
}

// VerdictFor returns the verdict of one class.
func (r *Report) VerdictFor(c Class) Verdict { return r.Verdicts[int(c)] }

// String renders one line per class.
func (r *Report) String() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "%-16s %s\n", v.Class.String()+":", v)
	}
	return b.String()
}

// Check runs the progressive analysis with the three memory-safety
// checkers as goals and settles one verdict per class:
//
//   - Safe@Lk: level k is the first whose result carries no alarm for
//     the class. Escalation is per query — the driver moves past a
//     level exactly when some class still alarms there.
//   - Unsafe: alarms survived the final level and a randomized concrete
//     execution exhibits a fault of the class; the verdict carries the
//     witness trace.
//   - Unknown: alarms survived but no execution confirmed them.
func Check(prog *ir.Program, opts Options) *Report {
	if opts.ConfirmRuns == 0 {
		opts.ConfirmRuns = 64
	}
	if opts.ConfirmSeed == 0 {
		opts.ConfirmSeed = 1
	}
	checkers := make([]Checker, 0, numClasses)
	goals := make([]analysis.Goal, 0, numClasses)
	for _, c := range Classes() {
		ck := CheckerFor(c)
		checkers = append(checkers, ck)
		goals = append(goals, ck)
	}
	pr := analysis.Progressive(prog, goals, opts.Analysis)
	rep := &Report{Prog: prog, Progressive: pr, Verdicts: make([]Verdict, numClasses)}

	// Settle Safe verdicts from the level reports.
	var confirm []Class
	for i, ck := range checkers {
		v := Verdict{Class: ck.Class(), Status: Unknown}
		var finalAlarms []Alarm
		sawResult := false
		for _, lr := range pr.Levels {
			if lr.Err != nil || lr.Result == nil {
				continue
			}
			sawResult = true
			alarms := ck.Alarms(lr.Result)
			if len(alarms) == 0 {
				v.Status = Safe
				v.Level = lr.Level
				finalAlarms = nil
				break
			}
			finalAlarms = alarms
		}
		v.Alarms = finalAlarms
		if !sawResult {
			rep.Err = pr.Final.Err
		}
		if v.Status != Safe && sawResult {
			confirm = append(confirm, ck.Class())
		}
		rep.Verdicts[i] = v
	}

	if len(confirm) > 0 {
		witnesses := confirmAlarms(prog, confirm, opts)
		for _, c := range confirm {
			if w := witnesses[c]; w != nil {
				rep.Verdicts[int(c)].Status = Unsafe
				rep.Verdicts[int(c)].Witness = w
			}
		}
	}
	return rep
}

// confirmAlarms searches randomized concrete executions for faults of
// the given classes and returns one witness per confirmed class. It
// stops after opts.ConfirmRuns executions, or once it has run for
// opts.Analysis.Timeout when that is set.
func confirmAlarms(prog *ir.Program, classes []Class, opts Options) map[Class]*triage.Witness {
	want := make(map[Class]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	var deadline time.Time
	if opts.Analysis.Timeout > 0 {
		deadline = time.Now().Add(opts.Analysis.Timeout)
	}
	out := make(map[Class]*triage.Witness)
	for run := 0; run < opts.ConfirmRuns && len(out) < len(classes); run++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		seed := opts.ConfirmSeed + int64(run)
		tr, err := concrete.RunSeed(prog, seed)
		if err != nil {
			continue
		}
		if c, ok := classOfFault(tr.Fault); ok && want[c] && out[c] == nil {
			out[c] = triage.NewWitness(prog, tr, seed)
		}
		if want[Leak] && out[Leak] == nil && len(tr.Leaks) > 0 {
			out[Leak] = triage.NewWitness(prog, tr, seed)
		}
	}
	return out
}

// classOfFault maps an interpreter fault to the checker class that owns
// it.
func classOfFault(f concrete.Fault) (Class, bool) {
	switch f {
	case concrete.FaultNullDeref:
		return NullDeref, true
	case concrete.FaultUseAfterFree, concrete.FaultDoubleFree:
		return UseAfterFree, true
	}
	return 0, false
}

// sortAlarms orders alarms by statement then detail and drops
// duplicates.
func sortAlarms(alarms []Alarm) []Alarm {
	sort.Slice(alarms, func(i, j int) bool {
		if alarms[i].StmtID != alarms[j].StmtID {
			return alarms[i].StmtID < alarms[j].StmtID
		}
		return alarms[i].Detail < alarms[j].Detail
	})
	out := alarms[:0]
	for i, a := range alarms {
		if i > 0 && a == alarms[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}
