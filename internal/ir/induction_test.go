package ir

import "testing"

// annotate lowers src and runs the induction pass on it.
func annotate(t *testing.T, src string) *Program {
	t.Helper()
	p := lower(t, src)
	p.AnnotateInduction()
	return p
}

// listPrologue declares the doubly linked node the induction tests walk.
const listPrologue = `
struct node { int v; struct node *nxt; struct node *prv; };
`

func TestDirectTraversalPvar(t *testing.T) {
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    p = malloc(sizeof(struct node));
    while (c) {
        p = p->nxt;
    }
}`)
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	if _, ok := p.Loops[0].Induction["p"]; !ok {
		t.Errorf("p = p->nxt makes p an induction pvar: %v", p.Loops[0].Induction)
	}
}

func TestTraversalThroughTemp(t *testing.T) {
	// q = p->nxt; p = q — a copy chain with one load: p advances.
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (c) {
        q = p->nxt;
        p = q;
    }
}`)
	ind := p.Loops[0].Induction
	if _, ok := ind["p"]; !ok {
		t.Errorf("p advances through q; induction = %v", ind)
	}
	if _, ok := ind["q"]; !ok {
		t.Errorf("q is on the advancing cycle too; induction = %v", ind)
	}
}

func TestMallocAdvanceIsNotInduction(t *testing.T) {
	// The list-building pattern p = q with q = malloc: no load cycle.
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (c) {
        q = malloc(sizeof(struct node));
        p->nxt = q;
        p = q;
    }
}`)
	ind := p.Loops[0].Induction
	if len(ind) != 0 {
		t.Errorf("no pvar traverses existing structure; induction = %v", ind)
	}
}

func TestPerLoopSets(t *testing.T) {
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (a) {
        q = malloc(sizeof(struct node));
        p->nxt = q;
        p = q;
    }
    q = p;
    while (b) {
        q = q->prv;
    }
}`)
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	if len(p.Loops[0].Induction) != 0 {
		t.Errorf("build loop induction = %v", p.Loops[0].Induction)
	}
	if _, ok := p.Loops[1].Induction["q"]; !ok {
		t.Errorf("traversal loop induction = %v", p.Loops[1].Induction)
	}
}

func TestNestedLoopInduction(t *testing.T) {
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    struct node *q;
    p = malloc(sizeof(struct node));
    while (a) {
        q = p;
        while (b) {
            q = q->nxt;
        }
        p = p->nxt;
    }
}`)
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	outer, inner := p.Loops[0], p.Loops[1]
	if _, ok := outer.Induction["p"]; !ok {
		t.Errorf("outer induction = %v", outer.Induction)
	}
	if _, ok := inner.Induction["q"]; !ok {
		t.Errorf("inner induction = %v", inner.Induction)
	}
	// q's advancing statement is only in the inner loop, but the outer
	// loop body contains it too — q advances per outer iteration as
	// well, so it appears in both sets.
	if _, ok := outer.Induction["q"]; !ok {
		t.Errorf("outer should also see q advancing: %v", outer.Induction)
	}
	// p does not advance within the inner loop.
	if _, ok := inner.Induction["p"]; ok {
		t.Errorf("inner must not contain p: %v", inner.Induction)
	}
}

func TestAnnotateReturnsUnion(t *testing.T) {
	p := annotate(t, listPrologue+`
void main(void) {
    struct node *p;
    p = malloc(sizeof(struct node));
    while (c) { p = p->nxt; }
}`)
	all := p.AnnotateInduction()
	if _, ok := all["p"]; !ok {
		t.Errorf("union = %v", all)
	}
}
