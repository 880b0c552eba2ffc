package cminic

import (
	"fmt"
	"strings"
)

// File is a parsed translation unit.
type File struct {
	Structs []*StructDecl
	Funcs   []*FuncDecl
	// Types indexes the struct declarations by name.
	Types map[string]*StructDecl
	// PtrVars maps every declared pointer variable (globals and locals
	// of all functions) to its pointee struct name.
	PtrVars map[string]string
}

// StructDecl is one struct type declaration.
type StructDecl struct {
	Name   string
	Fields []*Field
	Line   int
}

// Field is one struct member.
type Field struct {
	Name string
	// PointsTo is the pointee struct name for pointer-to-struct fields;
	// empty for scalar (non-pointer or non-struct) members, which the
	// analysis ignores.
	PointsTo string
	Line     int
}

// Selectors returns the names of the pointer-to-struct fields: the
// selector set S contributed by this type.
func (s *StructDecl) Selectors() []string {
	var out []string
	for _, f := range s.Fields {
		if f.PointsTo != "" {
			out = append(out, f.Name)
		}
	}
	return out
}

// Selector returns the field with the given name, or nil.
func (s *StructDecl) Selector(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncDecl is one function definition. Only the body is analyzed;
// parameters are rejected by the parser (the paper's compiler is
// intraprocedural).
type FuncDecl struct {
	Name string
	Body *Block
	Line int
}

// Stmt is the interface of all statement AST nodes.
type Stmt interface {
	stmtNode()
	Pos() int
}

// Block is a `{ ... }` statement list.
type Block struct {
	Stmts []Stmt
	Line  int
}

// DeclStmt declares a local variable, optionally with an initializer.
// PointsTo is set for pointer-to-struct declarations; scalar locals are
// recorded with PointsTo == "".
type DeclStmt struct {
	Name     string
	PointsTo string
	Init     Expr // nil when absent
	Line     int
}

// AssignStmt is `LHS = RHS;`. Scalar assignments are parsed but carry
// IsScalar so the lowering can discard them.
type AssignStmt struct {
	LHS      *Path
	RHS      Expr
	IsScalar bool
	Line     int
}

// IfStmt is `if (Cond) Then else Else`.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
	Line int
}

// WhileStmt is `while (Cond) Body` or, when DoWhile is set,
// `do Body while (Cond);`.
type WhileStmt struct {
	Cond    Expr
	Body    Stmt
	DoWhile bool
	Line    int
}

// ForStmt is `for (Init; Cond; Post) Body`; each header part may be nil.
type ForStmt struct {
	Init Stmt // AssignStmt or nil
	Cond Expr // nil = always true
	Post Stmt // AssignStmt or nil
	Body Stmt
	Line int
}

// FreeStmt is `free(Arg);`.
type FreeStmt struct {
	Arg  *Path
	Line int
}

// BreakStmt is `break;`.
type BreakStmt struct{ Line int }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ Line int }

// ReturnStmt is `return;` or `return expr;` (the value is opaque).
type ReturnStmt struct{ Line int }

// EmptyStmt is `;`.
type EmptyStmt struct{ Line int }

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*FreeStmt) stmtNode()     {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*EmptyStmt) stmtNode()    {}

// Pos returns the source line of the statement.
func (s *Block) Pos() int        { return s.Line }
func (s *DeclStmt) Pos() int     { return s.Line }
func (s *AssignStmt) Pos() int   { return s.Line }
func (s *IfStmt) Pos() int       { return s.Line }
func (s *WhileStmt) Pos() int    { return s.Line }
func (s *ForStmt) Pos() int      { return s.Line }
func (s *FreeStmt) Pos() int     { return s.Line }
func (s *BreakStmt) Pos() int    { return s.Line }
func (s *ContinueStmt) Pos() int { return s.Line }
func (s *ReturnStmt) Pos() int   { return s.Line }
func (s *EmptyStmt) Pos() int    { return s.Line }

// Expr is the interface of all expression AST nodes that can appear on
// the right-hand side of an assignment or inside a condition.
type Expr interface {
	exprNode()
}

// NullExpr is the literal NULL (or the constant 0 in pointer context).
type NullExpr struct{}

// MallocExpr is `malloc(sizeof(struct T))` (or calloc).
type MallocExpr struct{ Type string }

// PathExpr is a pointer access path used as a value.
type PathExpr struct{ Path *Path }

// OpaqueExpr is any scalar expression; the analysis treats it as a
// non-deterministic value. Pointers mentioned inside are recorded so
// conditions like `p != NULL` can refine the analysis.
type OpaqueExpr struct{ Text string }

// CmpNullExpr is a recognized pointer-NULL comparison used in a
// condition: Path == NULL (Equal) or Path != NULL (!Equal). Bare `p`
// conditions are (p != NULL); `!p` is (p == NULL).
type CmpNullExpr struct {
	Path  *Path
	Equal bool
}

// CmpPathExpr is a recognized pointer-pointer comparison `a == b` /
// `a != b` in a condition; the analysis treats it as opaque but the
// parser keeps the structure for diagnostics.
type CmpPathExpr struct {
	A, B  *Path
	Equal bool
}

func (*NullExpr) exprNode()    {}
func (*MallocExpr) exprNode()  {}
func (*PathExpr) exprNode()    {}
func (*OpaqueExpr) exprNode()  {}
func (*CmpNullExpr) exprNode() {}
func (*CmpPathExpr) exprNode() {}

// Path is a pointer access path: Base pvar followed by zero or more
// `->sel` steps. Sub-struct member access `a.b` inside a step is folded
// into the selector name ("a.b").
type Path struct {
	Base string
	Sels []string
	Line int
}

// String renders the path in C syntax.
func (p *Path) String() string {
	if len(p.Sels) == 0 {
		return p.Base
	}
	return p.Base + "->" + strings.Join(p.Sels, "->")
}

func (f *File) String() string {
	var b strings.Builder
	for _, s := range f.Structs {
		fmt.Fprintf(&b, "struct %s { %d fields }\n", s.Name, len(s.Fields))
	}
	for _, fn := range f.Funcs {
		fmt.Fprintf(&b, "func %s { %d stmts }\n", fn.Name, len(fn.Body.Stmts))
	}
	return b.String()
}
