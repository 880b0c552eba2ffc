// Package ir defines the normalized intermediate representation the
// shape analyzer executes symbolically: a statement-level control-flow
// graph whose pointer statements are exactly the paper's six simple
// instructions (Sect. 2), produced by lowering the mini-C AST with
// temporary pvars.
package ir

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/rsg"
)

// Op enumerates IR statement kinds.
type Op int

// The six simple pointer statements of the paper, plus the control
// operations the engine needs.
const (
	// OpNil is "x = NULL".
	OpNil Op = iota
	// OpMalloc is "x = malloc(sizeof(struct Type))".
	OpMalloc
	// OpCopy is "x = y".
	OpCopy
	// OpSelNil is "x->sel = NULL".
	OpSelNil
	// OpSelCopy is "x->sel = y".
	OpSelCopy
	// OpLoad is "x = y->sel".
	OpLoad
	// OpFree is "free(x)": the cell x references is deallocated, its
	// outgoing references die with it, and x itself becomes NULL (the
	// dialect nullifies the freed pvar so the abstract and concrete
	// semantics agree on the pvar layer; aliases of x keep their now
	// dangling bindings).
	OpFree
	// OpNoop has no pointer effect (scalar statements, labels).
	OpNoop
	// OpAssumeNull filters configurations where X is non-NULL (the true
	// edge of an `x == NULL` condition).
	OpAssumeNull
	// OpAssumeNonNull filters configurations where X is NULL.
	OpAssumeNonNull
	// OpEntry is the unique function entry.
	OpEntry
	// OpExit is the unique function exit.
	OpExit
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case OpNil:
		return "nil"
	case OpMalloc:
		return "malloc"
	case OpCopy:
		return "copy"
	case OpSelNil:
		return "selnil"
	case OpSelCopy:
		return "selcopy"
	case OpLoad:
		return "load"
	case OpFree:
		return "free"
	case OpNoop:
		return "noop"
	case OpAssumeNull:
		return "assume-null"
	case OpAssumeNonNull:
		return "assume-nonnull"
	case OpEntry:
		return "entry"
	case OpExit:
		return "exit"
	}
	return "?"
}

// Stmt is one IR statement, a node of the CFG.
type Stmt struct {
	ID   int
	Op   Op
	X    string // destination pvar / dereferenced pvar
	Y    string // source pvar (copy, selcopy, load)
	Sel  string // selector (selnil, selcopy, load)
	Type string // allocated struct type (malloc)
	Line int    // source line
	// XSym, YSym, SelSym and TypeSym are the interned forms of X, Y,
	// Sel and Type, filled in by lowering so the per-visit transfer
	// functions address the graph by symbol instead of hashing strings.
	XSym    rsg.Sym
	YSym    rsg.Sym
	SelSym  rsg.Sym
	TypeSym rsg.Sym
	// SelSyms holds, for OpFree, the interned selectors of the freed
	// struct type (declaration order): the abstract semantics unlinks
	// every outgoing reference of the freed cell.
	SelSyms []rsg.Sym
	// Succs are the IDs of the successor statements.
	Succs []int
	// Preds are the IDs of the predecessor statements (computed).
	Preds []int
	// Loops lists the IDs of the loops whose body contains this
	// statement, innermost last.
	Loops []int
}

// String renders the statement in C-like syntax.
func (s *Stmt) String() string {
	switch s.Op {
	case OpNil:
		return fmt.Sprintf("%s = NULL", s.X)
	case OpMalloc:
		return fmt.Sprintf("%s = malloc(struct %s)", s.X, s.Type)
	case OpCopy:
		return fmt.Sprintf("%s = %s", s.X, s.Y)
	case OpSelNil:
		return fmt.Sprintf("%s->%s = NULL", s.X, s.Sel)
	case OpSelCopy:
		return fmt.Sprintf("%s->%s = %s", s.X, s.Sel, s.Y)
	case OpLoad:
		return fmt.Sprintf("%s = %s->%s", s.X, s.Y, s.Sel)
	case OpFree:
		return fmt.Sprintf("free(%s)", s.X)
	case OpAssumeNull:
		return fmt.Sprintf("assume %s == NULL", s.X)
	case OpAssumeNonNull:
		return fmt.Sprintf("assume %s != NULL", s.X)
	default:
		return s.Op.String()
	}
}

// Loop describes one loop of the CFG.
type Loop struct {
	ID int
	// Header is the statement ID the back edge returns to.
	Header int
	// Body is the set of statement IDs inside the loop (condition
	// evaluation, body and post statements).
	Body map[int]struct{}
	// Induction is the set of induction pvars of this loop, filled by
	// Program.AnnotateInduction.
	Induction map[string]struct{}
	// Parent is the enclosing loop's ID, or -1.
	Parent int
	// Line is the source line of the loop statement.
	Line int
}

// Program is a lowered function: the CFG plus type and loop metadata.
// Once lowered and named, a Program is written only by the two
// memoized passes below, each guarded by a sync.Once, so one Program
// can serve concurrent analyses. A Program must not be copied.
type Program struct {
	Name  string
	Stmts []*Stmt
	Entry int
	Exit  int
	Loops []*Loop
	// PtrVars maps each pointer variable (including compiler
	// temporaries) to its pointee struct name.
	PtrVars map[string]string
	// Selectors maps each struct name to its pointer-field selectors.
	Selectors map[string][]string
	// Temps lists the compiler-generated temporary pvars.
	Temps []string

	// inductionOnce guards AnnotateInduction; induction is the union of
	// the loops' induction sets.
	inductionOnce sync.Once
	induction     map[string]struct{}
	// digestOnce guards the store digests (digest.go).
	digestOnce sync.Once
	digests    programDigests
}

// Stmt returns the statement with the given ID.
func (p *Program) Stmt(id int) *Stmt { return p.Stmts[id] }

// resolveSyms interns every name appearing in the program — pvars,
// selectors, struct types — and stamps each statement with the interned
// forms of its operands. Lowering calls it once per program.
func (p *Program) resolveSyms() {
	for v := range p.PtrVars {
		rsg.PvarSym(v)
	}
	for typ, sels := range p.Selectors {
		rsg.TypeSym(typ)
		for _, sel := range sels {
			rsg.SelSym(sel)
		}
	}
	for _, s := range p.Stmts {
		if s.X != "" {
			s.XSym = rsg.PvarSym(s.X)
		}
		if s.Y != "" {
			s.YSym = rsg.PvarSym(s.Y)
		}
		if s.Sel != "" {
			s.SelSym = rsg.SelSym(s.Sel)
		}
		if s.Type != "" {
			s.TypeSym = rsg.TypeSym(s.Type)
		}
		if s.Op == OpFree {
			sels := p.Selectors[s.Type]
			s.SelSyms = make([]rsg.Sym, len(sels))
			for i, sel := range sels {
				s.SelSyms[i] = rsg.SelSym(sel)
			}
		}
	}
}

// ComputePreds fills in the Preds lists from the Succs lists.
func (p *Program) ComputePreds() {
	for _, s := range p.Stmts {
		s.Preds = nil
	}
	for _, s := range p.Stmts {
		for _, succ := range s.Succs {
			p.Stmts[succ].Preds = append(p.Stmts[succ].Preds, s.ID)
		}
	}
	for _, s := range p.Stmts {
		sort.Ints(s.Preds)
	}
}

// LoopsExited returns the loops left by the edge from stmt u to stmt v:
// every loop containing u but not v, ordered innermost first.
func (p *Program) LoopsExited(u, v int) []*Loop {
	su, sv := p.Stmts[u], p.Stmts[v]
	in := make(map[int]struct{}, len(sv.Loops))
	for _, l := range sv.Loops {
		in[l] = struct{}{}
	}
	var out []*Loop
	for i := len(su.Loops) - 1; i >= 0; i-- {
		l := su.Loops[i]
		if _, ok := in[l]; !ok {
			out = append(out, p.Loops[l])
		}
	}
	return out
}

// InLoop reports whether the statement is inside any loop body.
func (p *Program) InLoop(id int) bool { return len(p.Stmts[id].Loops) > 0 }

// InductionFor returns the union of the induction pvar sets of every
// loop enclosing the statement.
func (p *Program) InductionFor(id int) map[string]struct{} {
	out := make(map[string]struct{})
	for _, l := range p.Stmts[id].Loops {
		for pv := range p.Loops[l].Induction {
			out[pv] = struct{}{}
		}
	}
	return out
}

// String renders the program listing with successor edges.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (entry=%d exit=%d)\n", p.Name, p.Entry, p.Exit)
	for _, s := range p.Stmts {
		fmt.Fprintf(&b, "%4d: %-30s -> %v", s.ID, s.String(), s.Succs)
		if len(s.Loops) > 0 {
			fmt.Fprintf(&b, "  loops=%v", s.Loops)
		}
		b.WriteString("\n")
	}
	for _, l := range p.Loops {
		ids := make([]int, 0, len(l.Body))
		for id := range l.Body {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintf(&b, "loop %d: header=%d body=%v\n", l.ID, l.Header, ids)
	}
	return b.String()
}
