package absem

import (
	"repro/internal/rsg"
)

// The per-graph transfer functions come in two addressing modes: the
// *Sym forms take interned symbols and are what the analysis engine
// calls on every visit (the IR resolves names to Syms at lowering
// time, so the hot path never hashes a string); the string forms are
// thin interning wrappers kept for tests and ad-hoc callers.

// StepNil is the per-graph semantics of "x = NULL". The input graph is
// never mutated; when the statement is a no-op for this graph, the
// graph itself is returned (callers treat graphs as immutable).
func StepNil(ctx *Context, g *rsg.Graph, x string) []*rsg.Graph {
	return StepNilSym(ctx, g, rsg.PvarSym(x))
}

// StepNilSym is StepNil addressed by interned pvar.
func StepNilSym(ctx *Context, g *rsg.Graph, x rsg.Sym) []*rsg.Graph {
	if g.PvarTargetSym(x) == nil {
		return []*rsg.Graph{g}
	}
	g2 := g.Clone()
	g2.ClearPvarSym(x)
	g2.CollectGarbage()
	ctx.compress(g2)
	return []*rsg.Graph{g2}
}

// StepMalloc is the per-graph semantics of "x = malloc(...)".
func StepMalloc(ctx *Context, g *rsg.Graph, x, typ string) []*rsg.Graph {
	return StepMallocSym(ctx, g, rsg.PvarSym(x), rsg.TypeSym(typ))
}

// StepMallocSym is StepMalloc addressed by interned pvar and type.
func StepMallocSym(ctx *Context, g *rsg.Graph, x, typ rsg.Sym) []*rsg.Graph {
	g2 := g.Clone()
	g2.ClearPvarSym(x)
	g2.CollectGarbage()
	n := rsg.NewNode(rsg.TypeName(typ))
	n.Singleton = true
	g2.AddNode(n)
	g2.SetPvarSym(x, n.ID)
	ctx.compress(g2)
	return []*rsg.Graph{g2}
}

// StepCopy is the per-graph semantics of "x = y".
func StepCopy(ctx *Context, g *rsg.Graph, x, y string) []*rsg.Graph {
	return StepCopySym(ctx, g, rsg.PvarSym(x), rsg.PvarSym(y))
}

// StepCopySym is StepCopy addressed by interned pvars.
func StepCopySym(ctx *Context, g *rsg.Graph, x, y rsg.Sym) []*rsg.Graph {
	if x == y {
		return []*rsg.Graph{g}
	}
	if g.PvarTargetSym(y) == nil && g.PvarTargetSym(x) == nil {
		return []*rsg.Graph{g}
	}
	g2 := g.Clone()
	yt := g2.PvarTargetSym(y)
	g2.ClearPvarSym(x)
	if yt != nil {
		g2.SetPvarSym(x, yt.ID)
		if ctx.touchEligibleSym(x) {
			yt.Touch.AddSym(x)
		}
	}
	g2.CollectGarbage()
	ctx.compress(g2)
	return []*rsg.Graph{g2}
}

// StepSelNil is the per-graph semantics of "x->sel = NULL". A nil
// result list means the graph has no successor configuration (NULL
// dereference).
func StepSelNil(ctx *Context, g *rsg.Graph, x, sel string) []*rsg.Graph {
	return StepSelNilSym(ctx, g, rsg.PvarSym(x), rsg.SelSym(sel))
}

// StepSelNilSym is StepSelNil addressed by interned pvar and selector.
func StepSelNilSym(ctx *Context, g *rsg.Graph, x, sel rsg.Sym) []*rsg.Graph {
	if g.PvarTargetSym(x) == nil {
		if ctx.Diags != nil {
			ctx.Diags.NullDerefs++
		}
		return nil
	}
	var out []*rsg.Graph
	for _, div := range divide(ctx, g, x, sel) {
		g2 := div.G
		if div.Target >= 0 {
			src := g2.PvarTargetSym(x)
			nm := materialize(ctx, g2, src.ID, sel)
			unlinkSym(g2, src.ID, sel, nm)
		}
		if !prune(ctx, g2) {
			continue
		}
		g2.CollectGarbage()
		ctx.compress(g2)
		out = append(out, g2)
	}
	return out
}

// StepSelCopy is the per-graph semantics of "x->sel = y".
func StepSelCopy(ctx *Context, g *rsg.Graph, x, sel, y string) []*rsg.Graph {
	return StepSelCopySym(ctx, g, rsg.PvarSym(x), rsg.SelSym(sel), rsg.PvarSym(y))
}

// StepSelCopySym is StepSelCopy addressed by interned symbols.
func StepSelCopySym(ctx *Context, g *rsg.Graph, x, sel, y rsg.Sym) []*rsg.Graph {
	if g.PvarTargetSym(x) == nil {
		if ctx.Diags != nil {
			ctx.Diags.NullDerefs++
		}
		return nil
	}
	var out []*rsg.Graph
	for _, div := range divide(ctx, g, x, sel) {
		g2 := div.G
		src := g2.PvarTargetSym(x)
		if div.Target >= 0 {
			nm := materialize(ctx, g2, src.ID, sel)
			unlinkSym(g2, src.ID, sel, nm)
		}
		if yt := g2.PvarTargetSym(y); yt != nil {
			linkSym(g2, src.ID, sel, yt.ID)
		}
		if !prune(ctx, g2) {
			continue
		}
		g2.CollectGarbage()
		ctx.compress(g2)
		out = append(out, g2)
	}
	return out
}

// StepLoad is the per-graph semantics of "x = y->sel".
func StepLoad(ctx *Context, g *rsg.Graph, x, y, sel string) []*rsg.Graph {
	return StepLoadSym(ctx, g, rsg.PvarSym(x), rsg.PvarSym(y), rsg.SelSym(sel))
}

// StepLoadSym is StepLoad addressed by interned symbols.
func StepLoadSym(ctx *Context, g *rsg.Graph, x, y, sel rsg.Sym) []*rsg.Graph {
	if g.PvarTargetSym(y) == nil {
		if ctx.Diags != nil {
			ctx.Diags.NullDerefs++
		}
		return nil
	}
	var out []*rsg.Graph
	for _, div := range divide(ctx, g, y, sel) {
		g2 := div.G
		if div.Target < 0 {
			g2.ClearPvarSym(x)
		} else {
			src := g2.PvarTargetSym(y)
			nm := materialize(ctx, g2, src.ID, sel)
			g2.ClearPvarSym(x)
			g2.SetPvarSym(x, nm)
			if ctx.touchEligibleSym(x) {
				g2.Node(nm).Touch.AddSym(x)
			}
		}
		if !prune(ctx, g2) {
			continue
		}
		g2.CollectGarbage()
		ctx.compress(g2)
		out = append(out, g2)
	}
	return out
}

// StepEraseTouch removes the given induction pvars from every TOUCH set
// of one graph.
func StepEraseTouch(ctx *Context, g *rsg.Graph, ipvars rsg.PvarSet) []*rsg.Graph {
	if ipvars.Empty() {
		return []*rsg.Graph{g}
	}
	touched := false
	for _, n := range g.Nodes() {
		if n.Touch.Intersects(ipvars) {
			touched = true
			break
		}
	}
	if !touched {
		return []*rsg.Graph{g}
	}
	g2 := g.Clone()
	for _, n := range g2.Nodes() {
		n.Touch = n.Touch.Minus(ipvars)
	}
	ctx.compress(g2)
	return []*rsg.Graph{g2}
}
