package ir

import (
	"strings"
	"testing"

	"repro/internal/cminic"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	f, err := cminic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := LowerMain(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

const prologue = `
struct node { int val; struct node *nxt; struct leaf *down; };
struct leaf { int v; struct leaf *sib; };
`

func wrapMain(body string) string {
	return prologue + "\nvoid main(void) {\n struct node *p;\n struct node *q;\n struct leaf *l;\n" + body + "\n}\n"
}

// ops extracts the op sequence (excluding entry/exit and the decl
// initializations) as strings.
func ops(p *Program) []string {
	var out []string
	for _, s := range p.Stmts {
		out = append(out, s.String())
	}
	return out
}

func hasStmt(p *Program, repr string) bool {
	for _, s := range p.Stmts {
		if s.String() == repr {
			return true
		}
	}
	return false
}

func TestLowerSimpleStatements(t *testing.T) {
	p := lower(t, wrapMain(`
p = malloc(sizeof(struct node));
p->nxt = NULL;
q = p;
p->nxt = q;
q = p->nxt;
q = NULL;
`))
	for _, want := range []string{
		"p = malloc(struct node)",
		"p->nxt = NULL",
		"q = p",
		"p->nxt = q",
		"q = p->nxt",
		"q = NULL",
	} {
		if !hasStmt(p, want) {
			t.Errorf("missing statement %q in:\n%s", want, p)
		}
	}
}

func TestLowerComplexPathsUseTemps(t *testing.T) {
	p := lower(t, wrapMain(`p->nxt->down = l->sib;`))
	// The two-selector LHS requires a prefix load into a temp; the RHS
	// value requires its own load.
	var loads, stores int
	for _, s := range p.Stmts {
		switch s.Op {
		case OpLoad:
			loads++
		case OpSelCopy:
			stores++
		}
	}
	if loads < 2 {
		t.Errorf("expected >=2 loads (LHS prefix + RHS value), got %d:\n%s", loads, p)
	}
	if stores != 1 {
		t.Errorf("expected exactly 1 selector store, got %d:\n%s", stores, p)
	}
	// Temps must be nulled afterwards.
	if len(p.Temps) == 0 {
		t.Fatal("no temps allocated")
	}
	for _, tmp := range p.Temps {
		found := false
		for _, s := range p.Stmts {
			if s.Op == OpNil && s.X == tmp {
				found = true
			}
		}
		if !found {
			t.Errorf("temp %s never cleaned up", tmp)
		}
	}
}

func TestLowerTempsAreTyped(t *testing.T) {
	p := lower(t, wrapMain(`l = p->nxt->down;`))
	for _, tmp := range p.Temps {
		if p.PtrVars[tmp] == "" {
			t.Errorf("temp %s has no pointee type", tmp)
		}
	}
	// The prefix temp must be a node pointer (p->nxt), not a leaf.
	foundNodeTemp := false
	for _, tmp := range p.Temps {
		if p.PtrVars[tmp] == "node" {
			foundNodeTemp = true
		}
	}
	if !foundNodeTemp {
		t.Errorf("expected a node-typed temp, temps: %v", p.Temps)
	}
}

func TestLowerMallocIntoField(t *testing.T) {
	p := lower(t, wrapMain(`p->nxt = malloc(sizeof(struct node));`))
	// Lowered as: t = malloc; p->nxt = NULL; p->nxt = t; t = NULL.
	var mallocTemp string
	for _, s := range p.Stmts {
		if s.Op == OpMalloc {
			mallocTemp = s.X
		}
	}
	if mallocTemp == "" || !strings.HasPrefix(mallocTemp, "__t") {
		t.Fatalf("malloc destination should be a temp, got %q:\n%s", mallocTemp, p)
	}
	if !hasStmt(p, "p->nxt = "+mallocTemp) {
		t.Errorf("missing store of malloc temp:\n%s", p)
	}
}

func TestLowerTypeErrors(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`p->bogus = NULL;`, "no field"},
		{`p->val = NULL;`, "not a struct pointer"}, // scalar field as pointer: LHS is scalar, so becomes noop — no error
		{`p = malloc(sizeof(struct leaf));`, "malloc of struct leaf assigned"},
		{`p = zz;`, "zz is not a declared struct pointer"},
		{`p->nxt = zz;`, "zz is not a declared struct pointer"},
		{`p = l;`, "struct leaf pointer assigned to pointer to struct node"},
		{`p->nxt = l;`, "struct leaf pointer assigned to pointer to struct node"},
		{`l = p->nxt;`, "struct node pointer assigned to pointer to struct leaf"},
		{`struct node *r = l;`, "struct leaf pointer assigned to pointer to struct node"},
	}
	for _, c := range cases {
		f, err := cminic.Parse(wrapMain(c.body))
		if err != nil {
			// Some cases fail at parse time; that is acceptable too.
			continue
		}
		_, err = LowerMain(f)
		if c.want == "not a struct pointer" {
			// `p->val = NULL` parses as a scalar assignment (RHS opaque)
			// and lowers to a noop; no error expected.
			if err != nil && !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: unexpected error %v", c.body, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", c.body, err, c.want)
		}
	}
}

func TestLowerCFGStructure(t *testing.T) {
	p := lower(t, wrapMain(`
if (c) { p = NULL; } else { q = NULL; }
while (d) { p = NULL; }
`))
	// Entry has successors; exit has none.
	if len(p.Stmt(p.Entry).Succs) == 0 {
		t.Error("entry has no successors")
	}
	if len(p.Stmt(p.Exit).Succs) != 0 {
		t.Error("exit must have no successors")
	}
	// Every statement except entry is reachable and has predecessors.
	for _, s := range p.Stmts {
		if s.ID != p.Entry && len(s.Preds) == 0 {
			t.Errorf("statement %d (%s) unreachable", s.ID, s)
		}
	}
	if len(p.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(p.Loops))
	}
}

func TestLowerLoopBodies(t *testing.T) {
	p := lower(t, wrapMain(`
while (a) {
    p = q;
    while (b) {
        q = p;
    }
}
`))
	if len(p.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(p.Loops))
	}
	outer, inner := p.Loops[0], p.Loops[1]
	if inner.Parent != outer.ID {
		t.Errorf("inner loop parent = %d, want %d", inner.Parent, outer.ID)
	}
	// Inner body is a subset of the outer body.
	for id := range inner.Body {
		if _, ok := outer.Body[id]; !ok {
			t.Errorf("inner-loop stmt %d not inside the outer loop", id)
		}
	}
	// The q = p statement is in both loops' bodies, in order.
	for _, s := range p.Stmts {
		if s.String() == "q = p" {
			if len(s.Loops) != 2 || s.Loops[0] != outer.ID || s.Loops[1] != inner.ID {
				t.Errorf("q = p loop list = %v", s.Loops)
			}
		}
	}
}

func TestLowerBreakContinue(t *testing.T) {
	p := lower(t, wrapMain(`
while (a) {
    if (b) { break; }
    if (c) { continue; }
    p = NULL;
}
q = p;
`))
	// The statement after the loop must be reachable through an edge
	// leaving the loop body (break or exhausted condition; with opaque
	// conditions both share the branch point).
	var qnil *Stmt
	for _, s := range p.Stmts {
		if s.String() == "q = p" {
			qnil = s
		}
	}
	if qnil == nil {
		t.Fatal("q = p missing")
	}
	fromLoop := false
	for _, pred := range qnil.Preds {
		if len(p.Stmt(pred).Loops) > 0 {
			fromLoop = true
		}
	}
	if !fromLoop {
		t.Errorf("q = p not reachable from inside the loop; preds=%v", qnil.Preds)
	}
	// The break makes the loop exit reachable even though the loop
	// condition is opaque: verify p = NULL inside the body cannot flow
	// around the break via a missing edge (i.e. the body still loops).
	if len(p.Loops) != 1 || len(p.Loops[0].Body) == 0 {
		t.Errorf("loop structure lost: %v", p.Loops)
	}
}

func TestLowerConditionAssumes(t *testing.T) {
	p := lower(t, wrapMain(`
while (p != NULL) { p = p->nxt; }
`))
	var nonNull, null int
	for _, s := range p.Stmts {
		switch s.Op {
		case OpAssumeNonNull:
			nonNull++
		case OpAssumeNull:
			null++
		}
	}
	if nonNull != 1 || null != 1 {
		t.Errorf("assume counts: nonnull=%d null=%d, want 1/1:\n%s", nonNull, null, ops(p))
	}
}

func TestLowerConditionOnField(t *testing.T) {
	p := lower(t, wrapMain(`
if (p->nxt == NULL) { q = NULL; }
`))
	// The condition loads p->nxt into a temp and assumes on the temp.
	foundLoad := false
	for _, s := range p.Stmts {
		if s.Op == OpLoad && s.Y == "p" && s.Sel == "nxt" {
			foundLoad = true
		}
	}
	if !foundLoad {
		t.Errorf("condition did not load p->nxt:\n%s", p)
	}
}

func TestLowerForLoop(t *testing.T) {
	p := lower(t, wrapMain(`
for (p = q; c; q = p) { l = NULL; }
`))
	if len(p.Loops) != 1 {
		t.Fatalf("got %d loops", len(p.Loops))
	}
	loop := p.Loops[0]
	// init (p = NULL) outside the loop; post (q = NULL) inside.
	for _, s := range p.Stmts {
		switch s.String() {
		case "p = q":
			if _, in := loop.Body[s.ID]; in {
				t.Error("for-init must be outside the loop body")
			}
		case "q = p":
			if _, in := loop.Body[s.ID]; !in {
				t.Error("for-post must be inside the loop body")
			}
		}
	}
}

func TestLowerDoWhile(t *testing.T) {
	p := lower(t, wrapMain(`
do { p = NULL; } while (c);
q = NULL;
`))
	if len(p.Loops) != 1 {
		t.Fatalf("got %d loops", len(p.Loops))
	}
	// The body executes at least once: p=NULL dominates q=NULL.
	if !hasStmt(p, "p = NULL") || !hasStmt(p, "q = NULL") {
		t.Fatalf("missing statements:\n%s", p)
	}
}

func TestLowerScalarsBecomeNoops(t *testing.T) {
	p := lower(t, wrapMain(`
i = i + 1;
p->val = 7;
`))
	for _, s := range p.Stmts {
		switch s.Op {
		case OpNil, OpMalloc, OpCopy, OpSelNil, OpSelCopy, OpLoad:
			if !strings.HasPrefix(s.X, "__t") && s.X != "p" && s.X != "q" && s.X != "l" {
				t.Errorf("scalar statement lowered to pointer op: %s", s)
			}
			if s.Op != OpNil {
				t.Errorf("unexpected pointer op from scalar statements: %s", s)
			}
		}
	}
}

func TestLoopsExited(t *testing.T) {
	p := lower(t, wrapMain(`
while (a) {
    while (b) {
        p = q;
    }
    q = p;
}
l = p->down;
`))
	if len(p.Loops) != 2 {
		t.Fatalf("got %d loops", len(p.Loops))
	}
	// Find an edge from inside the inner loop to q = NULL (exits inner only).
	var qn, ln *Stmt
	for _, s := range p.Stmts {
		switch s.String() {
		case "q = p":
			qn = s
		case "l = p->down":
			ln = s
		}
	}
	for _, pred := range qn.Preds {
		exited := p.LoopsExited(pred, qn.ID)
		for _, lp := range exited {
			if lp.ID == p.Loops[0].ID {
				t.Errorf("edge %d->%d must not exit the outer loop", pred, qn.ID)
			}
		}
	}
	exitsOuter := false
	for _, pred := range ln.Preds {
		for _, lp := range p.LoopsExited(pred, ln.ID) {
			if lp.ID == p.Loops[0].ID {
				exitsOuter = true
			}
		}
	}
	if !exitsOuter {
		t.Error("no edge into l = NULL exits the outer loop")
	}
}
