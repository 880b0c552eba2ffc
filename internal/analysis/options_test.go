package analysis

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/rsg"
)

const optListSrc = `
struct node { int val; struct node *nxt; };
void main(void) {
    struct node *head;
    struct node *p;
    head = malloc(sizeof(struct node));
    head->nxt = NULL;
    p = head;
    while (cond) {
        p->nxt = malloc(sizeof(struct node));
        p = p->nxt;
        p->nxt = NULL;
    }
}
`

func TestTimeoutOption(t *testing.T) {
	prog := compile(t, optListSrc)
	_, err := Run(prog, Options{Level: rsg.L1, Timeout: time.Nanosecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMaxVisitsOption(t *testing.T) {
	prog := compile(t, optListSrc)
	_, err := Run(prog, Options{Level: rsg.L1, MaxVisits: 3})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	prog := compile(t, optListSrc)
	res, err := Run(prog, Options{}) // zero options: L1, default caps
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != rsg.L1 {
		t.Errorf("default level = %s", res.Level)
	}
}

// TestNullDereferenceEmptiesOutState: a statement that dereferences a
// pvar NULL in every incoming configuration has no successor
// configuration, so its out-state and everything after it are empty.
func TestNullDereferenceEmptiesOutState(t *testing.T) {
	prog := compile(t, `
struct node { int val; struct node *nxt; };
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    p->nxt = NULL;
    q = p->nxt;
    q->nxt = NULL;   /* q is NULL here: guaranteed null dereference */
}`)
	res, err := Run(prog, Options{Level: rsg.L1})
	if err != nil {
		t.Fatal(err)
	}
	deref := -1
	for _, s := range prog.Stmts {
		if s.Op == ir.OpSelNil && s.X == "q" {
			deref = s.ID
		}
	}
	if deref < 0 {
		t.Fatal("no q->nxt = NULL statement")
	}
	for _, pred := range prog.Stmt(deref).Preds {
		if in := res.Out[pred]; in == nil || in.Len() == 0 {
			t.Fatalf("predecessor %d of the dereference has no configuration", pred)
		}
	}
	if out := res.Out[deref]; out == nil || out.Len() != 0 {
		t.Errorf("q->nxt = NULL out-state = %v, want empty", out)
	}
	if res.ExitSet().Len() != 0 {
		t.Error("no configuration survives the dereference")
	}
}
