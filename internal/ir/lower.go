package ir

import (
	"fmt"
	"sort"

	"repro/internal/cminic"
)

// Lower normalizes one parsed function into the six-statement IR and
// builds its control-flow graph. Complex pointer statements are
// decomposed with typed compiler temporaries ("more complex pointer
// instructions can be built upon these simple ones and temporal
// variables", Sect. 2 of the paper).
func Lower(file *cminic.File, fn *cminic.FuncDecl) (*Program, error) {
	l := &lowerer{
		file: file,
		prog: &Program{
			Name:      fn.Name,
			PtrVars:   make(map[string]string),
			Selectors: make(map[string][]string),
		},
		temps: make(map[string]string),
	}
	for name, typ := range file.PtrVars {
		if _, known := file.Types[typ]; !known {
			return nil, fmt.Errorf("%s: pointer %s declared with undefined struct %s",
				fn.Name, name, typ)
		}
		l.prog.PtrVars[name] = typ
	}
	for _, s := range file.Structs {
		l.prog.Selectors[s.Name] = s.Selectors()
	}

	entry := l.emit(&Stmt{Op: OpEntry, Line: fn.Line})
	l.prog.Entry = entry
	l.pending = []int{entry}

	l.lowerBlock(fn.Body)

	exit := l.add(&Stmt{Op: OpExit, Line: fn.Line})
	for _, p := range append(l.pending, l.returns...) {
		l.edge(p, exit)
	}
	l.prog.Exit = exit

	if l.err != nil {
		return nil, l.err
	}
	l.prog.ComputePreds()
	l.prog.resolveSyms()
	return l.prog, nil
}

// LowerMain parses nothing; it lowers the function called "main", or
// the only function when there is exactly one.
func LowerMain(file *cminic.File) (*Program, error) {
	if len(file.Funcs) == 1 {
		return Lower(file, file.Funcs[0])
	}
	for _, fn := range file.Funcs {
		if fn.Name == "main" {
			return Lower(file, fn)
		}
	}
	return nil, fmt.Errorf("ir: %d functions and none named main", len(file.Funcs))
}

type loopFrame struct {
	loop      *Loop
	continues []int // pending edges to the continue target
	breaks    []int // pending edges past the loop
	start     int   // first statement index belonging to the loop
}

type lowerer struct {
	file    *cminic.File
	prog    *Program
	pending []int // statements whose successor is the next emitted one
	returns []int
	loops   []*loopFrame
	temps   map[string]string // temp name -> pointee type (reuse pool)
	live    map[string]bool   // temps currently holding a value
	tempSeq int
	err     error
}

func (l *lowerer) fail(line int, format string, args ...interface{}) {
	if l.err == nil {
		l.err = fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
}

// add appends a statement without wiring the frontier.
func (l *lowerer) add(s *Stmt) int {
	s.ID = len(l.prog.Stmts)
	l.prog.Stmts = append(l.prog.Stmts, s)
	return s.ID
}

// emit appends a statement and attaches every pending predecessor.
func (l *lowerer) emit(s *Stmt) int {
	id := l.add(s)
	for _, p := range l.pending {
		l.edge(p, id)
	}
	l.pending = []int{id}
	return id
}

func (l *lowerer) edge(from, to int) {
	s := l.prog.Stmts[from]
	for _, x := range s.Succs {
		if x == to {
			return
		}
	}
	s.Succs = append(s.Succs, to)
	sort.Ints(s.Succs)
}

// newTemp returns a temporary pvar of the given pointee type, reusing a
// pool slot that is not currently live (several temps of one type can
// be live at once inside a single lowered statement, e.g. when both
// sides of `a->f->g = b->h` need a prefix evaluation).
func (l *lowerer) newTemp(typ string) string {
	if l.live == nil {
		l.live = make(map[string]bool)
	}
	var names []string
	for name, t := range l.temps {
		if t == typ && !l.live[name] {
			names = append(names, name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names) // deterministic reuse
		l.live[names[0]] = true
		return names[0]
	}
	l.tempSeq++
	name := fmt.Sprintf("__t%d_%s", l.tempSeq, typ)
	l.temps[name] = typ
	l.live[name] = true
	l.prog.PtrVars[name] = typ
	l.prog.Temps = append(l.prog.Temps, name)
	return name
}

// releaseTemp returns a temp to the pool after its OpNil cleanup.
func (l *lowerer) releaseTemp(name string) {
	if l.live != nil {
		l.live[name] = false
	}
}

func (l *lowerer) lowerBlock(b *cminic.Block) {
	for _, s := range b.Stmts {
		if l.err != nil {
			return
		}
		l.lowerStmt(s)
	}
}

func (l *lowerer) lowerStmt(s cminic.Stmt) {
	switch st := s.(type) {
	case *cminic.Block:
		l.lowerBlock(st)
	case *cminic.EmptyStmt:
		// No statement emitted; the frontier passes through.
	case *cminic.DeclStmt:
		l.lowerDecl(st)
	case *cminic.AssignStmt:
		l.lowerAssign(st)
	case *cminic.FreeStmt:
		l.lowerFree(st)
	case *cminic.IfStmt:
		l.lowerIf(st)
	case *cminic.WhileStmt:
		l.lowerWhile(st)
	case *cminic.ForStmt:
		l.lowerFor(st)
	case *cminic.BreakStmt:
		if len(l.loops) == 0 {
			l.fail(st.Line, "break outside loop")
			return
		}
		f := l.loops[len(l.loops)-1]
		f.breaks = concat(f.breaks, l.pending)
		l.pending = nil
	case *cminic.ContinueStmt:
		if len(l.loops) == 0 {
			l.fail(st.Line, "continue outside loop")
			return
		}
		f := l.loops[len(l.loops)-1]
		f.continues = concat(f.continues, l.pending)
		l.pending = nil
	case *cminic.ReturnStmt:
		l.returns = concat(l.returns, l.pending)
		l.pending = nil
	default:
		l.fail(0, "unknown statement %T", s)
	}
}

func (l *lowerer) lowerDecl(d *cminic.DeclStmt) {
	if d.PointsTo == "" {
		if d.Init != nil {
			l.emit(&Stmt{Op: OpNoop, Line: d.Line})
		}
		return
	}
	// Pointer locals start undefined; the analysis models them as NULL
	// until the first assignment.
	l.emit(&Stmt{Op: OpNil, X: d.Name, Line: d.Line})
	if d.Init != nil {
		l.lowerPtrAssign(&cminic.Path{Base: d.Name, Line: d.Line}, d.Init, d.Line)
	}
}

func (l *lowerer) lowerAssign(a *cminic.AssignStmt) {
	// Validate the access path even for scalar stores: an unknown field
	// is a frontend error either way.
	scalar := l.isScalarPath(a.LHS, a.Line)
	if a.IsScalar || scalar {
		l.emit(&Stmt{Op: OpNoop, Line: a.Line})
		return
	}
	l.lowerPtrAssign(a.LHS, a.RHS, a.Line)
}

// lowerFree lowers `free(path)`: the path is evaluated into a pvar
// (loading through a temp when it has selectors) and an OpFree is
// emitted for it. The freed struct type rides on the statement so the
// abstract semantics knows which outgoing selectors die with the cell.
func (l *lowerer) lowerFree(st *cminic.FreeStmt) {
	if _, ok := l.prog.PtrVars[st.Arg.Base]; !ok {
		l.fail(st.Line, "free of %s: not a declared struct pointer", st.Arg.Base)
		return
	}
	if l.isScalarPath(st.Arg, st.Line) {
		l.fail(st.Line, "free of a scalar path")
		return
	}
	var cleanup []string
	x := l.evalPathValue(st.Arg, st.Line, &cleanup)
	if l.err != nil {
		return
	}
	l.emit(&Stmt{Op: OpFree, X: x, Type: l.prog.PtrVars[x], Line: st.Line})
	for _, t := range cleanup {
		l.emit(&Stmt{Op: OpNil, X: t, Line: st.Line})
		l.releaseTemp(t)
	}
}

// isScalarPath reports whether the path denotes scalar data (so the
// assignment has no pointer effect). A selector chain through declared
// structs must name existing fields; accessing an unknown field is a
// frontend error, not a silent scalar.
func (l *lowerer) isScalarPath(p *cminic.Path, line int) bool {
	typ, ok := l.prog.PtrVars[p.Base]
	if !ok {
		return true // scalar local: any member access is opaque data
	}
	for i, sel := range p.Sels {
		decl := l.file.Types[typ]
		if decl == nil {
			l.fail(line, "unknown struct %s", typ)
			return true
		}
		f := decl.Selector(sel)
		if f == nil {
			l.fail(line, "struct %s has no field %s", typ, sel)
			return true
		}
		if f.PointsTo == "" {
			// Scalar field: must be the last selector.
			if i != len(p.Sels)-1 {
				l.fail(line, "struct %s field %s is not a struct pointer", typ, sel)
			}
			return true
		}
		typ = f.PointsTo
	}
	return false
}

// evalPathPrefix lowers the access of all but the last selector of a
// path into a pvar, returning (pvar, lastSel). Emits load statements
// through a temp when needed and records it for cleanup.
func (l *lowerer) evalPathPrefix(p *cminic.Path, line int, cleanup *[]string) (string, string) {
	if len(p.Sels) == 0 {
		return p.Base, ""
	}
	base := p.Base
	typ, ok := l.prog.PtrVars[base]
	if !ok {
		l.fail(line, "%s is not a declared struct pointer", base)
		return base, ""
	}
	cur := base
	for i := 0; i < len(p.Sels)-1; i++ {
		sel := p.Sels[i]
		next, ok := l.selectorType(typ, sel, line)
		if !ok {
			return cur, ""
		}
		t := l.newTemp(next)
		l.emit(&Stmt{Op: OpLoad, X: t, Y: cur, Sel: sel, Line: line})
		*cleanup = append(*cleanup, t)
		cur, typ = t, next
	}
	last := p.Sels[len(p.Sels)-1]
	if _, ok := l.selectorType(typ, last, line); !ok {
		return cur, ""
	}
	return cur, last
}

// evalPathValue lowers a full path used as a value into a pvar.
func (l *lowerer) evalPathValue(p *cminic.Path, line int, cleanup *[]string) string {
	if len(p.Sels) == 0 {
		return p.Base
	}
	base, lastSel := l.evalPathPrefix(p, line, cleanup)
	if l.err != nil {
		return base
	}
	typ := l.prog.PtrVars[base]
	next, _ := l.selectorType(typ, lastSel, line)
	t := l.newTemp(next)
	l.emit(&Stmt{Op: OpLoad, X: t, Y: base, Sel: lastSel, Line: line})
	*cleanup = append(*cleanup, t)
	return t
}

func (l *lowerer) selectorType(typ, sel string, line int) (string, bool) {
	decl := l.file.Types[typ]
	if decl == nil {
		l.fail(line, "unknown struct %s", typ)
		return "", false
	}
	f := decl.Selector(sel)
	if f == nil {
		l.fail(line, "struct %s has no field %s", typ, sel)
		return "", false
	}
	if f.PointsTo == "" {
		l.fail(line, "struct %s field %s is not a struct pointer", typ, sel)
		return "", false
	}
	return f.PointsTo, true
}

func (l *lowerer) lowerPtrAssign(lhs *cminic.Path, rhs cminic.Expr, line int) {
	var cleanup []string
	defer func() {
		for _, t := range cleanup {
			l.emit(&Stmt{Op: OpNil, X: t, Line: line})
			l.releaseTemp(t)
		}
	}()

	if len(lhs.Sels) == 0 {
		x := lhs.Base
		switch r := rhs.(type) {
		case *cminic.NullExpr:
			l.emit(&Stmt{Op: OpNil, X: x, Line: line})
		case *cminic.MallocExpr:
			l.checkMallocType(lhs, r, line)
			l.emit(&Stmt{Op: OpMalloc, X: x, Type: r.Type, Line: line})
		case *cminic.PathExpr:
			if len(r.Path.Sels) == 0 {
				l.emit(&Stmt{Op: OpCopy, X: x, Y: r.Path.Base, Line: line})
				return
			}
			base, lastSel := l.evalPathPrefix(r.Path, line, &cleanup)
			if l.err != nil {
				return
			}
			l.emit(&Stmt{Op: OpLoad, X: x, Y: base, Sel: lastSel, Line: line})
		default:
			l.fail(line, "unsupported pointer right-hand side %T", rhs)
		}
		return
	}

	// LHS with selectors: evaluate the prefix, then store.
	base, lastSel := l.evalPathPrefix(lhs, line, &cleanup)
	if l.err != nil {
		return
	}
	switch r := rhs.(type) {
	case *cminic.NullExpr:
		l.emit(&Stmt{Op: OpSelNil, X: base, Sel: lastSel, Line: line})
	case *cminic.MallocExpr:
		t := l.newTemp(r.Type)
		l.emit(&Stmt{Op: OpMalloc, X: t, Type: r.Type, Line: line})
		l.emit(&Stmt{Op: OpSelNil, X: base, Sel: lastSel, Line: line})
		l.emit(&Stmt{Op: OpSelCopy, X: base, Sel: lastSel, Y: t, Line: line})
		cleanup = append(cleanup, t)
	case *cminic.PathExpr:
		y := l.evalPathValue(r.Path, line, &cleanup)
		if l.err != nil {
			return
		}
		l.emit(&Stmt{Op: OpSelNil, X: base, Sel: lastSel, Line: line})
		l.emit(&Stmt{Op: OpSelCopy, X: base, Sel: lastSel, Y: y, Line: line})
	default:
		l.fail(line, "unsupported pointer right-hand side %T", rhs)
	}
}

func (l *lowerer) checkMallocType(lhs *cminic.Path, m *cminic.MallocExpr, line int) {
	want, ok := l.file.PathType(l.prog.PtrVars, lhs)
	if ok && want != m.Type {
		l.fail(line, "malloc of struct %s assigned to pointer to struct %s", m.Type, want)
	}
	if _, known := l.file.Types[m.Type]; !known {
		l.fail(line, "malloc of unknown struct %s", m.Type)
	}
}

// lowerCond lowers a condition and returns the frontiers of the true
// and false branches.
func (l *lowerer) lowerCond(cond cminic.Expr, line int) (truePend, falsePend []int) {
	switch c := cond.(type) {
	case *cminic.CmpNullExpr:
		var cleanup []string
		v := c.Path.Base
		if len(c.Path.Sels) > 0 {
			v = l.evalPathValue(c.Path, line, &cleanup)
			if l.err != nil {
				return l.pending, l.pending
			}
		}
		branch := l.pending
		// True edge.
		l.pending = branch
		opT, opF := OpAssumeNonNull, OpAssumeNull
		if c.Equal { // (p == NULL)
			opT, opF = OpAssumeNull, OpAssumeNonNull
		}
		l.emit(&Stmt{Op: opT, X: v, Line: line})
		l.cleanupTemps(cleanup, line)
		truePend = l.pending
		// False edge.
		l.pending = branch
		l.emit(&Stmt{Op: opF, X: v, Line: line})
		l.cleanupTemps(cleanup, line)
		falsePend = l.pending
		return truePend, falsePend
	case nil:
		// `for (;;)`: always true.
		return l.pending, nil
	default:
		// Opaque condition (scalar comparisons, pointer-pointer
		// comparisons): both branches are possible from here. The two
		// frontiers are independent copies — callers append to them.
		return concat(l.pending, nil), concat(l.pending, nil)
	}
}

// concat returns a freshly allocated concatenation; frontier slices are
// shared across branches, so in-place appends would alias.
func concat(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func (l *lowerer) cleanupTemps(temps []string, line int) {
	for _, t := range temps {
		l.emit(&Stmt{Op: OpNil, X: t, Line: line})
		l.releaseTemp(t)
	}
}

func (l *lowerer) lowerIf(s *cminic.IfStmt) {
	tp, fp := l.lowerCond(s.Cond, s.Line)
	l.pending = tp
	l.lowerStmt(s.Then)
	thenEnd := l.pending
	l.pending = fp
	if s.Else != nil {
		l.lowerStmt(s.Else)
	}
	l.pending = concat(thenEnd, l.pending)
}

func (l *lowerer) beginLoop(line int) *loopFrame {
	loop := &Loop{
		ID:        len(l.prog.Loops),
		Body:      make(map[int]struct{}),
		Induction: make(map[string]struct{}),
		Parent:    -1,
		Line:      line,
	}
	if len(l.loops) > 0 {
		loop.Parent = l.loops[len(l.loops)-1].loop.ID
	}
	l.prog.Loops = append(l.prog.Loops, loop)
	f := &loopFrame{loop: loop}
	l.loops = append(l.loops, f)
	return f
}

func (l *lowerer) endLoop(f *loopFrame, end int) {
	l.loops = l.loops[:len(l.loops)-1]
	for id := f.start; id < end; id++ {
		f.loop.Body[id] = struct{}{}
		l.prog.Stmts[id].Loops = append(l.prog.Stmts[id].Loops, f.loop.ID)
	}
	// Loop ID lists must be outermost-first.
	for id := f.start; id < end; id++ {
		s := l.prog.Stmts[id]
		sort.Slice(s.Loops, func(i, j int) bool { return s.Loops[i] < s.Loops[j] })
	}
}

func (l *lowerer) lowerWhile(s *cminic.WhileStmt) {
	f := l.beginLoop(s.Line)
	header := l.emit(&Stmt{Op: OpNoop, Line: s.Line})
	f.loop.Header = header
	f.start = header

	if s.DoWhile {
		l.lowerStmt(s.Body)
		l.pending = concat(l.pending, f.continues)
		f.continues = nil
		tp, fp := l.lowerCond(s.Cond, s.Line)
		for _, t := range tp {
			l.edge(t, header)
		}
		l.pending = concat(fp, f.breaks)
	} else {
		tp, fp := l.lowerCond(s.Cond, s.Line)
		l.pending = tp
		l.lowerStmt(s.Body)
		l.pending = concat(l.pending, f.continues)
		for _, p := range l.pending {
			l.edge(p, header)
		}
		l.pending = concat(fp, f.breaks)
	}
	l.endLoop(f, len(l.prog.Stmts))
}

func (l *lowerer) lowerFor(s *cminic.ForStmt) {
	if s.Init != nil {
		l.lowerStmt(s.Init)
	}
	f := l.beginLoop(s.Line)
	header := l.emit(&Stmt{Op: OpNoop, Line: s.Line})
	f.loop.Header = header
	f.start = header

	tp, fp := l.lowerCond(s.Cond, s.Line)
	l.pending = tp
	l.lowerStmt(s.Body)
	l.pending = concat(l.pending, f.continues)
	if s.Post != nil {
		l.lowerStmt(s.Post)
	}
	for _, p := range l.pending {
		l.edge(p, header)
	}
	l.pending = concat(fp, f.breaks)
	l.endLoop(f, len(l.prog.Stmts))
}
