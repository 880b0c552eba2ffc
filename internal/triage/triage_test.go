package triage

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cminic"
	"repro/internal/concrete"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// hubRelinkSrc is the undistilled reproducer of the L1 hub-rotation
// soundness gap, since fixed: a hub with two selectors into one target,
// a loop that links back into the hub and rotates `p = q`. PRUNE's
// share rule once evicted links on the strength of unanchored JOIN
// copies here; the committed corpus case
// internal/concrete/testdata/hub_rotation.c is this program after
// Shrink, and TestCorpusSoundness sweeps it at L1/L2/L3. The tests
// below keep the engine sound and manufacture the cover failure the
// triage tools need by cutting one out-set (cutFirstMultiSet).
const hubRelinkSrc = `
struct node { int v; struct node *nxt; struct node *prv; };

void main(void) {
    struct node *h;
    struct node *p;
    struct node *q;
    h = malloc(sizeof(struct node));
    p = malloc(sizeof(struct node));
    h->nxt = p;
    h->prv = p;
    while (cond) {
        q = malloc(sizeof(struct node));
        q->nxt = h;
        p->nxt = q;
        h->prv = q;
        p = q;
    }
}
`

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	file, err := cminic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.LowerMain(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func fixedOpts() analysis.Options {
	return analysis.Options{Level: rsg.L1, MaxVisits: 50000}
}

// cutFirstMultiSet replaces the first out-set, in statement order,
// that holds two or more RSGs with a set of its first member alone. The
// cut result under-approximates that statement's reachable heaps, which
// gives the triage tools a cover failure to report without a buggy
// engine. It returns the cut statement's ID, or -1 when no set has two
// members.
func cutFirstMultiSet(res *analysis.Result) int {
	for id := range res.Program.Stmts {
		set := res.Out[id]
		if set == nil || set.Len() < 2 {
			continue
		}
		cut := rsrsg.New()
		cut.Add(set.Graphs()[0])
		res.Out[id] = cut
		return id
	}
	return -1
}

// cutCoverFailure is the shrinking predicate for the cut: compile, run
// the fixed engine, cut the first multi-member out-set, and hold when
// the concrete traces find a heap the cut result misses.
func cutCoverFailure(src string) bool {
	file, err := cminic.Parse(src)
	if err != nil {
		return false
	}
	prog, err := ir.LowerMain(file)
	if err != nil {
		return false
	}
	res, err := analysis.Run(prog, fixedOpts())
	if err != nil || cutFirstMultiSet(res) < 0 {
		return false
	}
	fail, err := concrete.FindCoverFailure(prog, res.Out, res.Level, 10, 42)
	return err == nil && fail != nil
}

// TestExplainNamesCoverFailure drives the explainer over a cut result:
// the report must name the failing statement and the node property
// that rejected the nearest embedding, and the DOT pair must carry both
// clusters.
func TestExplainNamesCoverFailure(t *testing.T) {
	prog := compileSrc(t, hubRelinkSrc)
	res, err := analysis.Run(prog, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	cut := cutFirstMultiSet(res)
	if cut < 0 {
		t.Fatal("no out-set with two RSGs to cut")
	}
	rep, err := Explain(prog, res, 25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatalf("cutting statement %d left every observed heap covered", cut)
	}
	text := rep.Text()
	t.Logf("cut statement %d; report:\n%s", cut, text)
	if !strings.Contains(text, rep.Fail.Stmt) {
		t.Errorf("report does not name the failing statement %q:\n%s", rep.Fail.Stmt, text)
	}
	if !strings.Contains(text, "statement context:") || !strings.Contains(text, ">>") {
		t.Errorf("report lacks the statement context:\n%s", text)
	}
	nearest := rep.Fail.Nearest()
	if nearest == nil && !rep.Fail.EmptySet && len(rep.Fail.Graphs) > 0 {
		t.Fatalf("no nearest RSG in a non-empty failure")
	}
	if nearest != nil {
		if nearest.Headline.Kind == "" {
			t.Errorf("nearest RSG has no rejecting property")
		}
		if !strings.Contains(text, string(nearest.Headline.Kind)) {
			t.Errorf("report does not name the rejecting property %s:\n%s", nearest.Headline.Kind, text)
		}
	}
	dot := rep.DOT()
	if !strings.Contains(dot, "cluster_heap") {
		t.Errorf("DOT pair lacks the concrete-heap cluster:\n%s", dot)
	}
	if nearest != nil && !strings.Contains(dot, "cluster_nearest") {
		t.Errorf("DOT pair lacks the nearest-RSG cluster:\n%s", dot)
	}
}

// TestFixedEngineCoversHubRelink pins the fix: the same program under
// the current engine has no cover failure at any level, and the
// standard shrinking predicate does not hold on it.
func TestFixedEngineCoversHubRelink(t *testing.T) {
	prog := compileSrc(t, hubRelinkSrc)
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		res, err := analysis.Run(prog, analysis.Options{Level: lvl, MaxVisits: 50000})
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		rep, err := Explain(prog, res, 25, 42)
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		if rep != nil {
			t.Fatalf("%s: unexpected cover failure:\n%s", lvl, rep.Text())
		}
	}
	if SoundnessPredicate(fixedOpts(), 10, 42)(hubRelinkSrc) {
		t.Fatal("SoundnessPredicate holds on a program the fixed engine covers")
	}
}

// TestShrinkerProperties is the shrinker's contract on the cut
// hub-rotation result: the output still satisfies the predicate, is no
// larger than the input in statements, and is 1-minimal — removing any
// single remaining statement stops the failure.
func TestShrinkerProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking runs the analysis per candidate")
	}
	out, err := Shrink(hubRelinkSrc, cutCoverFailure)
	if err != nil {
		t.Fatal(err)
	}
	if !cutCoverFailure(out) {
		t.Fatalf("shrunk program no longer satisfies the predicate:\n%s", out)
	}
	nIn, err := StmtCount(hubRelinkSrc)
	if err != nil {
		t.Fatal(err)
	}
	file, err := cminic.Parse(out)
	if err != nil {
		t.Fatalf("shrunk program does not parse: %v\n%s", err, out)
	}
	nOut := countUnits(file)
	if nOut > nIn {
		t.Fatalf("shrunk program grew: %d -> %d statements\n%s", nIn, nOut, out)
	}
	for i := 0; i < nOut; i++ {
		if cand := emitWithout(file, i, i+1); cutCoverFailure(cand) {
			t.Errorf("not 1-minimal: dropping statement %d still fails:\n%s", i, cand)
		}
	}
	t.Logf("shrunk %d -> %d statements:\n%s", nIn, nOut, out)
}
