package verdict

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/concrete"
	"repro/internal/rsg"
)

func mustCompile(t *testing.T, src string) *TaskResult {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(prog, Options{})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return &TaskResult{Report: rep}
}

const uafSrc = `
struct node { struct node *nxt; };
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    q = p;
    free(p);
    q->nxt = NULL;
}`

func TestCheckSettlesUnsafeWithWitness(t *testing.T) {
	rep := mustCompile(t, uafSrc).Report
	v := rep.VerdictFor(UseAfterFree)
	if v.Status != Unsafe {
		t.Fatalf("use-after-free = %s, want unsafe", v)
	}
	if len(v.Alarms) == 0 {
		t.Error("unsafe verdict carries no alarms")
	}
	if v.Witness == nil {
		t.Fatal("unsafe verdict carries no witness")
	}
	txt := v.Witness.Text()
	for _, want := range []string{"use-after-free", "seed", "statement context", ">>", "execution tail", "heap before the violation"} {
		if !strings.Contains(txt, want) {
			t.Errorf("witness text misses %q:\n%s", want, txt)
		}
	}
	// The other two classes are provable at L1 on this program.
	for _, c := range []Class{NullDeref, Leak} {
		if v := rep.VerdictFor(c); v.Status != Safe || v.Level != rsg.L1 {
			t.Errorf("%s = %s, want safe@L1", c, v)
		}
	}
	if s := rep.String(); !strings.Contains(s, "use-after-free: ") && !strings.Contains(s, "unsafe") {
		t.Errorf("report string incomplete:\n%s", s)
	}
}

// TestConfirmStopsAtTimeout checks that the concrete confirmation ends
// once it has run for the analysis timeout. No execution confirms the
// task's use-after-free alarm, so without that stop all 2^18 runs
// would execute.
func TestConfirmStopsAtTimeout(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "corpus", "uaf_dangling_ref_unknown.c"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep := Check(prog, Options{
		Analysis:    analysis.Options{Timeout: 200 * time.Millisecond},
		ConfirmRuns: 1 << 18,
	})
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Check took %v with a 200ms timeout", d)
	}
	if v := rep.VerdictFor(UseAfterFree); v.Status != Unknown {
		t.Fatalf("use-after-free = %s, want unknown", v)
	}
}

func TestLeakWitnessText(t *testing.T) {
	rep := mustCompile(t, `
struct node { struct node *nxt; };
void main(void) {
    struct node *p;
    p = malloc(sizeof(struct node));
    p = NULL;
}`).Report
	v := rep.VerdictFor(Leak)
	if v.Status != Unsafe || v.Witness == nil {
		t.Fatalf("leak = %s (witness %v), want unsafe with witness", v, v.Witness)
	}
	txt := v.Witness.Text()
	if !strings.Contains(txt, "strands cell") {
		t.Errorf("leak witness text misses the stranded cell:\n%s", txt)
	}
}

// strandedByJoinSrc is concrete.GenFreeProgram at source seed
// 4562516553240252923. Once the loop has run twice, `r = p->prv`
// (statement 22) overwrites r's only reference with NULL and strands
// the cell r = malloc(...) allocated. At that statement one reaching
// graph has a definite prv link into r's node from a singleton that
// only a possible link reaches: JOIN left that singleton empty in some
// of the configurations the graph covers, so its link proves nothing
// there.
const strandedByJoinSrc = `
struct node { int v; struct node *nxt; struct node *prv; };
void main(void) {
    struct node *p;
    struct node *q;
    struct node *r;
    free(q);
    r = malloc(sizeof(struct node));
    if (q != NULL) { q->prv = q; }
    if (q != NULL) { q->nxt = r; }
    if (p != NULL) { p->nxt = r; }
    q = malloc(sizeof(struct node));
    while (cond) {
        if (p != NULL) { r = p->prv; }
        p = q;
        q = malloc(sizeof(struct node));
        if (q != NULL) { q->prv = p; }
    }
    p = NULL;
    if (q != NULL) { q->nxt = NULL; }
    if (r != NULL) { r->nxt = NULL; }
}`

// TestLeakThroughJoinedEmptySource checks that a definite link out of a
// node that may be empty does not anchor its target: the leak checker
// must not settle SAFE on a program the interpreter sees leak.
func TestLeakThroughJoinedEmptySource(t *testing.T) {
	prog, err := Compile(strandedByJoinSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := concrete.RunSeed(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	stranded := false
	for _, l := range tr.Leaks {
		stranded = stranded || l.StmtID == 22
	}
	if !stranded {
		t.Fatalf("concrete run at seed 2 records no leak at statement 22: %+v", tr.Leaks)
	}
	rep := Check(prog, Options{})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if v := rep.VerdictFor(Leak); v.Status != Unsafe {
		t.Fatalf("leak = %s, want unsafe", v)
	}
}

func TestVerdictString(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{Verdict{Class: NullDeref, Status: Safe, Level: rsg.L2}, "safe@L2"},
		{Verdict{Class: Leak, Status: Unsafe}, "unsafe"},
		{Verdict{Class: UseAfterFree, Status: Unknown}, "unknown"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseHeader(t *testing.T) {
	exp, ok, err := ParseHeader("// a comment\n// VERDICT: null-deref=safe@L2 use-after-free=unsafe leak=unknown\nstruct node{};")
	if err != nil || !ok {
		t.Fatalf("ParseHeader = (%v, %v)", ok, err)
	}
	if e := exp[NullDeref]; e.Status != Safe || e.Level != rsg.L2 {
		t.Errorf("null-deref expectation = %+v", e)
	}
	if e := exp[UseAfterFree]; e.Status != Unsafe {
		t.Errorf("use-after-free expectation = %+v", e)
	}
	if e := exp[Leak]; e.Status != Unknown {
		t.Errorf("leak expectation = %+v", e)
	}

	if _, ok, _ := ParseHeader("struct node{};"); ok {
		t.Error("headerless source parsed as carrying a header")
	}
	for _, bad := range []string{
		"// VERDICT: null-deref=safe",                                               // missing classes
		"// VERDICT: null-deref=safe use-after-free=safe leak=maybe",                // bad status
		"// VERDICT: null-deref=unsafe@L2 use-after-free=safe leak=safe",            // level on unsafe
		"// VERDICT: null-deref=safe@L9 use-after-free=safe leak=safe",              // bad level
		"// VERDICT: null-deref=safe null-deref=safe use-after-free=safe leak=safe", // duplicate
		"// VERDICT: nulls=safe use-after-free=safe leak=safe",                      // unknown class
		"// VERDICT: null-deref use-after-free=safe leak=safe",                      // not k=v
	} {
		if _, ok, err := ParseHeader(bad); !ok || err == nil {
			t.Errorf("ParseHeader(%q) = (%v, %v), want error", bad, ok, err)
		}
	}
}

func TestExpectationMatches(t *testing.T) {
	anySafe := Expectation{Status: Safe}
	l2Safe := Expectation{Status: Safe, Level: rsg.L2}
	if !anySafe.Matches(Verdict{Status: Safe, Level: rsg.L3}) {
		t.Error("level-agnostic safe must match any safe level")
	}
	if l2Safe.Matches(Verdict{Status: Safe, Level: rsg.L1}) {
		t.Error("safe@L2 must not match safe@L1")
	}
	if !l2Safe.Matches(Verdict{Status: Safe, Level: rsg.L2}) {
		t.Error("safe@L2 must match safe@L2")
	}
	if anySafe.Matches(Verdict{Status: Unknown}) {
		t.Error("safe must not match unknown")
	}
	if got := l2Safe.String(); got != "safe@L2" {
		t.Errorf("String() = %q", got)
	}
}

func TestSortAlarmsDeterministicAndDeduped(t *testing.T) {
	in := []Alarm{
		{Class: NullDeref, StmtID: 9, Detail: "b"},
		{Class: NullDeref, StmtID: 3, Detail: "z"},
		{Class: NullDeref, StmtID: 9, Detail: "a"},
		{Class: NullDeref, StmtID: 3, Detail: "z"},
	}
	out := sortAlarms(in)
	if len(out) != 3 {
		t.Fatalf("dedup kept %d alarms, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].StmtID > out[i].StmtID {
			t.Fatalf("alarms out of order: %+v", out)
		}
	}
}

func TestCheckerForCoversAllClasses(t *testing.T) {
	for _, c := range Classes() {
		ck := CheckerFor(c)
		if ck == nil {
			t.Fatalf("no checker for %s", c)
		}
		if ck.Class() != c {
			t.Errorf("CheckerFor(%s).Class() = %s", c, ck.Class())
		}
		if ck.Name() == "" {
			t.Errorf("%s checker has no name", c)
		}
	}
}
