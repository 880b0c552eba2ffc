// Package triage turns soundness-fuzzer finds into actionable bug
// reports: a cover-diff explainer that replays the concrete/abstract
// embedding check with full introspection, and a ddmin shrinker that
// delta-debugs a failing mini-C program down to a minimal corpus case.
// DESIGN.md §11 describes the workflow (fuzz find → explain → shrink →
// corpus → fix); cmd/shapetriage is the CLI.
package triage

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/concrete"
	"repro/internal/ir"
)

// Report is one explained soundness violation.
type Report struct {
	Fail *concrete.CoverFailure
	Prog *ir.Program
}

// Explain cross-validates the analysis result against `runs` randomized
// concrete executions and, when a heap escapes coverage, replays the
// embedding search with introspection. It returns nil (no error) when
// every observed heap is covered.
func Explain(prog *ir.Program, res *analysis.Result, runs int, seed int64) (*Report, error) {
	fail, err := concrete.FindCoverFailure(prog, res.Out, res.Level, runs, seed)
	if err != nil || fail == nil {
		return nil, err
	}
	return &Report{Fail: fail, Prog: prog}, nil
}

// Text renders the full report: the cover-diff plus the failing
// statement in its IR neighborhood.
func (r *Report) Text() string {
	var b strings.Builder
	b.WriteString(r.Fail.String())
	b.WriteString("statement context:\n")
	for id := r.Fail.StmtID - 2; id <= r.Fail.StmtID+2; id++ {
		if id < 0 || id >= len(r.Prog.Stmts) {
			continue
		}
		marker := "   "
		if id == r.Fail.StmtID {
			marker = ">> "
		}
		fmt.Fprintf(&b, "%s%4d: %s\n", marker, id, r.Prog.Stmt(id))
	}
	return b.String()
}

// DOT renders the side-by-side pair: the uncovered concrete heap and
// the nearest RSG, with the best partial embedding highlighted on both.
func (r *Report) DOT() string { return r.Fail.DOT() }
