// Package absem implements the abstract semantics of the paper's six
// simple pointer statements over RSRSGs (Sect. 2, Fig. 2):
//
//	x = NULL        x = malloc       x = y
//	x->sel = NULL   x->sel = y       x = y->sel
//
// Every statement follows the Fig. 2 pipeline: each input RSG is
// divided and pruned, the abstract effect of the statement is applied
// (materializing summary nodes where a strong update is needed), each
// result is compressed, and the resulting graphs are reduced into the
// output RSRSG by joining compatible ones.
//
// The per-graph transfer functions (StepNil, StepLoad, ...) live in
// stepgraph.go; the Set-level functions here map them over an RSRSG and
// reduce. The analysis engine calls the per-graph functions directly so
// it can step only the graphs new to a statement's in-state.
//
// More complex pointer statements are built from these six plus
// temporary pvars by the frontend (internal/ir).
package absem

import (
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// Context carries the per-statement analysis configuration.
type Context struct {
	// Level is the progressive analysis level (L1/L2/L3).
	Level rsg.Level
	// Opts tunes the RSRSG reduction.
	Opts rsrsg.Options
	// InLoop reports whether the statement is inside a loop body; TOUCH
	// information is only maintained there (Sect. 3).
	InLoop bool
	// Induction holds the induction pvars of the enclosing loops; only
	// these are eligible for TOUCH sets.
	Induction rsg.PvarSet
}

func (c *Context) touchEligibleSym(x rsg.Sym) bool {
	return c.Level.UseTouch() && c.InLoop && c.Induction.HasSym(x)
}

func (c *Context) reduce(graphs []*rsg.Graph) *rsrsg.Set {
	out := rsrsg.New()
	for _, g := range graphs {
		out.AddStats(g, c.Opts.Stats)
	}
	out.Reduce(c.Level, c.Opts)
	return out
}

// mapStep applies a per-graph transfer over the set and reduces.
func mapStep(ctx *Context, in *rsrsg.Set, f func(*rsg.Graph) []*rsg.Graph) *rsrsg.Set {
	var out []*rsg.Graph
	for _, g := range in.Graphs() {
		out = append(out, f(g)...)
	}
	return ctx.reduce(out)
}

// XNil is the abstract semantics of "x = NULL".
func XNil(ctx *Context, in *rsrsg.Set, x string) *rsrsg.Set {
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepNil(ctx, g, x) })
}

// XMalloc is the abstract semantics of "x = malloc(sizeof(struct typ))".
func XMalloc(ctx *Context, in *rsrsg.Set, x, typ string) *rsrsg.Set {
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepMalloc(ctx, g, x, typ) })
}

// XCopy is the abstract semantics of "x = y".
func XCopy(ctx *Context, in *rsrsg.Set, x, y string) *rsrsg.Set {
	if x == y {
		return in.Clone()
	}
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepCopy(ctx, g, x, y) })
}

// XSelNil is the abstract semantics of "x->sel = NULL".
func XSelNil(ctx *Context, in *rsrsg.Set, x, sel string) *rsrsg.Set {
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepSelNil(ctx, g, x, sel) })
}

// XSelCopy is the abstract semantics of "x->sel = y".
func XSelCopy(ctx *Context, in *rsrsg.Set, x, sel, y string) *rsrsg.Set {
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepSelCopy(ctx, g, x, sel, y) })
}

// XLoad is the abstract semantics of "x = y->sel".
func XLoad(ctx *Context, in *rsrsg.Set, x, y, sel string) *rsrsg.Set {
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepLoad(ctx, g, x, y, sel) })
}

// EraseTouch removes the given induction pvars from every TOUCH set in
// the RSRSG; the analysis engine applies it on loop-exit edges, because
// "after exiting a loop body the TOUCH information regarding the ipvars
// of this loop are not needed any more" (Sect. 3).
func EraseTouch(ctx *Context, in *rsrsg.Set, ipvars rsg.PvarSet) *rsrsg.Set {
	if ipvars.Empty() {
		return in.Clone()
	}
	return mapStep(ctx, in, func(g *rsg.Graph) []*rsg.Graph { return StepEraseTouch(ctx, g, ipvars) })
}
