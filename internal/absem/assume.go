package absem

import (
	"repro/internal/rsg"
	"repro/internal/rsrsg"
)

// AssumeNull filters the RSRSG down to the configurations where x is
// NULL. Within one RSG a pvar either references a node (non-NULL in
// every covered configuration) or is absent from PL (NULL in every
// covered configuration), so the filter is exact at graph granularity.
// It implements the true edge of an `if (x == NULL)` condition.
func AssumeNull(ctx *Context, in *rsrsg.Set, x string) *rsrsg.Set {
	return AssumeNullSym(ctx, in, rsg.PvarSym(x))
}

// AssumeNullSym is AssumeNull addressed by interned pvar.
func AssumeNullSym(ctx *Context, in *rsrsg.Set, x rsg.Sym) *rsrsg.Set {
	return in.Filter(func(g *rsg.Graph) bool { return g.PvarTargetSym(x) == nil })
}

// AssumeNonNull filters the RSRSG down to the configurations where x
// references a node; the true edge of `if (x != NULL)`.
func AssumeNonNull(ctx *Context, in *rsrsg.Set, x string) *rsrsg.Set {
	return AssumeNonNullSym(ctx, in, rsg.PvarSym(x))
}

// AssumeNonNullSym is AssumeNonNull addressed by interned pvar.
func AssumeNonNullSym(ctx *Context, in *rsrsg.Set, x rsg.Sym) *rsrsg.Set {
	return in.Filter(func(g *rsg.Graph) bool { return g.PvarTargetSym(x) != nil })
}

// AssumeNullDeltaSym is the semi-naïve variant of AssumeNullSym:
// instead of re-filtering the whole in-state, it folds an in-state
// membership delta into the cached filter result. Because the filter is
// a plain per-graph predicate, applying the delta yields exactly the
// set a full AssumeNullSym over the new in-state would build.
func AssumeNullDeltaSym(ctx *Context, cached *rsrsg.Set, added []*rsg.Graph, removed []rsg.Digest, x rsg.Sym) {
	assumeDelta(cached, ctx.Opts.Stats, added, removed, func(g *rsg.Graph) bool { return g.PvarTargetSym(x) == nil })
}

// AssumeNonNullDeltaSym is the semi-naïve variant of AssumeNonNullSym.
func AssumeNonNullDeltaSym(ctx *Context, cached *rsrsg.Set, added []*rsg.Graph, removed []rsg.Digest, x rsg.Sym) {
	assumeDelta(cached, ctx.Opts.Stats, added, removed, func(g *rsg.Graph) bool { return g.PvarTargetSym(x) != nil })
}

func assumeDelta(cached *rsrsg.Set, rec *rsg.RunStats, added []*rsg.Graph, removed []rsg.Digest, pred func(*rsg.Graph) bool) {
	for _, dig := range removed {
		cached.Remove(dig)
	}
	for _, g := range added {
		if pred(g) {
			cached.AddStats(g, rec)
		}
	}
}

// EraseMemo caches EraseTouch results per loop-exit edge. The erased
// ipvar set of an edge is static, so the result is fully determined by
// the input RSRSG; during the fixed point the same predecessor
// out-state crosses the same edge many times, and the memo skips the
// per-graph re-stepping and re-reduction on every repeat. The cached
// set is returned as-is — callers (the engine's in-state accumulation)
// only read it.
type EraseMemo struct {
	m map[uint64]eraseMemoEntry
}

type eraseMemoEntry struct {
	n   int
	dig rsg.Digest
	out *rsrsg.Set
}

// Apply returns EraseTouch(ctx, in, ipvars), served from the memo when
// the edge's input set is unchanged since the last visit.
func (em *EraseMemo) Apply(ctx *Context, edge uint64, in *rsrsg.Set, ipvars rsg.PvarSet) *rsrsg.Set {
	if e, ok := em.m[edge]; ok && e.n == in.Len() && e.dig == in.Digest() {
		return e.out
	}
	out := EraseTouch(ctx, in, ipvars)
	if em.m == nil {
		em.m = make(map[uint64]eraseMemoEntry)
	}
	em.m[edge] = eraseMemoEntry{n: in.Len(), dig: in.Digest(), out: out}
	return out
}
