package verdict

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
)

// inGraphs enumerates the RSGs reaching a statement: the union of its
// predecessors' out-states, deduplicated by digest. This is the state
// *before* the statement's own transfer (and before any join with other
// paths' results), which is what a checker must inspect: a fault
// happens on the way into the statement, and faulting configurations
// never appear in its out-state.
func inGraphs(res *analysis.Result, s *ir.Stmt) []*rsg.Graph {
	var out []*rsg.Graph
	seen := make(map[rsg.Digest]struct{})
	for _, pred := range s.Preds {
		set := res.Out[pred]
		if set == nil {
			continue
		}
		for _, g := range set.Graphs() {
			d := g.Digest()
			if _, ok := seen[d]; ok {
				continue
			}
			seen[d] = struct{}{}
			out = append(out, g)
		}
	}
	return out
}

// NullSafe is the null-dereference checker: every statement that
// dereferences a pvar (x->sel = ..., ... = y->sel) must find that pvar
// bound in every reaching configuration. Pvar NULL-ness is exact per
// RSG (division separates the NULL branch of every load), so "unbound
// in some reaching graph" is precisely "NULL on some abstract path".
//
// Reading a selector that is NULL is well defined in the dialect (the
// load yields NULL), so a node without an outgoing sel link is not by
// itself an error — the error surfaces when the loaded pvar is later
// dereferenced, which this checker catches at that statement.
type NullSafe struct{}

// Class implements Checker.
func (NullSafe) Class() Class { return NullDeref }

// Name implements analysis.Goal.
func (NullSafe) Name() string { return "null-safe" }

// Met implements analysis.Goal.
func (c NullSafe) Met(res *analysis.Result) (bool, string) { return met(c, res) }

// Alarms implements Checker.
func (NullSafe) Alarms(res *analysis.Result) []Alarm {
	var alarms []Alarm
	for _, s := range res.Program.Stmts {
		var pvar string
		var sym rsg.Sym
		switch s.Op {
		case ir.OpSelNil, ir.OpSelCopy:
			pvar, sym = s.X, s.XSym
		case ir.OpLoad:
			pvar, sym = s.Y, s.YSym
		default:
			continue
		}
		for _, g := range inGraphs(res, s) {
			if g.PvarTargetSym(sym) == nil {
				alarms = append(alarms, Alarm{
					Class:  NullDeref,
					StmtID: s.ID,
					Line:   s.Line,
					Detail: fmt.Sprintf("%s may be NULL at `%s`", pvar, s),
				})
				break
			}
		}
	}
	return sortAlarms(alarms)
}

// FreeSafe is the use-after-free checker. It enforces the
// sole-reference criterion at every free site: in every reaching
// configuration, the freed node is referenced by the freed pvar only —
// no other pvar and no heap reference from another node. Pvar bindings
// are exact per RSG and the embedding maps every concrete reference to
// an abstract one, so the criterion guarantees no reference to the cell
// survives the free: no later statement can dereference it (no
// use-after-free through a stale configuration) and no later free can
// release it again (no double free). Self references die with the cell
// and are permitted.
//
// free(NULL) is a no-op and never alarms.
type FreeSafe struct{}

// Class implements Checker.
func (FreeSafe) Class() Class { return UseAfterFree }

// Name implements analysis.Goal.
func (FreeSafe) Name() string { return "free-safe" }

// Met implements analysis.Goal.
func (c FreeSafe) Met(res *analysis.Result) (bool, string) { return met(c, res) }

// Alarms implements Checker.
func (FreeSafe) Alarms(res *analysis.Result) []Alarm {
	var alarms []Alarm
	for _, s := range res.Program.Stmts {
		if s.Op != ir.OpFree {
			continue
		}
		for _, g := range inGraphs(res, s) {
			n := g.PvarTargetSym(s.XSym)
			if n == nil {
				continue // free(NULL)
			}
			if detail, ok := soleReference(g, n, s.X); !ok {
				alarms = append(alarms, Alarm{
					Class:  UseAfterFree,
					StmtID: s.ID,
					Line:   s.Line,
					Detail: fmt.Sprintf("`%s` may leave a dangling reference: %s", s, detail),
				})
				break
			}
		}
	}
	return sortAlarms(alarms)
}

// soleReference reports whether the node's only possible incoming
// reference is the pvar x (self links excluded: they die with the
// cell).
func soleReference(g *rsg.Graph, n *rsg.Node, x string) (string, bool) {
	for _, p := range g.PvarsOf(n.ID) {
		if p != x {
			return fmt.Sprintf("pvar %s still references the freed cell", p), false
		}
	}
	for _, l := range g.InLinks(n.ID) {
		if l.Src != n.ID {
			return fmt.Sprintf("heap reference %s may survive", l), false
		}
	}
	return "", true
}

// LeakFree is the memory-leak checker. A leak happens the moment a
// still-allocated cell becomes unreachable from the pvars, so the
// checker inspects every statement that kills a reference: pvar
// rebindings (x = NULL, x = y, x = y->sel, x = malloc), selector kills
// (x->sel = NULL, x->sel = y) and free(x) (which kills the freed cell's
// outgoing references; the freed cell itself is properly disposed, not
// leaked).
//
// Every concrete path that the kill can sever passes through the killed
// reference's target cell, and the suffix of any simple path survives
// the kill, so it suffices to prove that each *immediate* target of a
// killed reference is still reachable afterwards ("anchored", see
// anchoredNodes). Abstract garbage collection mirrors the concrete
// interpreter's GC, so the per-statement RSRSGs only cover fully
// reachable heaps and a statement-local check is complete.
//
// At the exit the checker additionally requires every node of every
// exit RSG to be reachable from the pvars — the paper-style
// leak-at-exit scan (near-vacuous here precisely because abstract GC
// removed unreachable nodes the moment they arose, which is where the
// kill-site alarms fire).
type LeakFree struct{}

// Class implements Checker.
func (LeakFree) Class() Class { return Leak }

// Name implements analysis.Goal.
func (LeakFree) Name() string { return "leak-free" }

// Met implements analysis.Goal.
func (c LeakFree) Met(res *analysis.Result) (bool, string) { return met(c, res) }

// Alarms implements Checker.
func (LeakFree) Alarms(res *analysis.Result) []Alarm {
	var alarms []Alarm
	for _, s := range res.Program.Stmts {
		spec, ok := killOf(s)
		if !ok {
			continue
		}
		for _, g := range inGraphs(res, s) {
			if detail, ok := killSafe(g, s, spec); !ok {
				alarms = append(alarms, Alarm{
					Class:  Leak,
					StmtID: s.ID,
					Line:   s.Line,
					Detail: fmt.Sprintf("`%s` may strand cells: %s", s, detail),
				})
				break
			}
		}
	}
	if set := res.ExitSet(); set != nil {
		for _, g := range set.Graphs() {
			reach := g.Reachable()
			for _, n := range g.Nodes() {
				if _, ok := reach[n.ID]; !ok {
					alarms = append(alarms, Alarm{
						Class:  Leak,
						StmtID: res.Program.Exit,
						Line:   res.Program.Stmt(res.Program.Exit).Line,
						Detail: fmt.Sprintf("exit configuration holds an unreachable %s cell", n.Type),
					})
				}
			}
		}
	}
	return sortAlarms(alarms)
}

// killKind classifies reference-killing statements.
type killKind int

const (
	killPvar killKind = iota // x rebound: old pvar reference dies
	killSel                  // x->sel overwritten: one heap reference dies
	killFree                 // free(x): pvar and all outgoing references die
)

// killOf classifies a statement's reference-kill effect.
func killOf(s *ir.Stmt) (killKind, bool) {
	switch s.Op {
	case ir.OpNil, ir.OpMalloc, ir.OpLoad:
		return killPvar, true
	case ir.OpCopy:
		if s.X == s.Y {
			return 0, false
		}
		return killPvar, true
	case ir.OpSelNil, ir.OpSelCopy:
		return killSel, true
	case ir.OpFree:
		return killFree, true
	}
	return 0, false
}

// killSafe checks one reference-killing statement against one reaching
// RSG: every immediate target of a killed reference must remain
// reachable (anchored) after the kill.
func killSafe(g *rsg.Graph, s *ir.Stmt, kind killKind) (string, bool) {
	xn := g.PvarTargetSym(s.XSym)
	if xn == nil {
		// x is NULL: nothing to kill (pvar kills and free(NULL)), or
		// the statement faults here and has no post-state (sel kills —
		// the null checker owns that report).
		return "", true
	}
	k := kill{graph: g, kind: kind, xn: xn.ID}
	var targets []rsg.NodeID
	switch kind {
	case killPvar:
		if s.Op == ir.OpLoad && g.PvarTargetSym(s.YSym) == nil {
			return "", true // the load faults; no post-state to leak in
		}
		k.killedPvar = s.XSym
		targets = []rsg.NodeID{xn.ID}
	case killSel:
		k.killedSel = s.SelSym
		targets = g.TargetsSym(xn.ID, s.SelSym)
	case killFree:
		k.killedPvar = s.XSym
		k.freed = true
		seen := map[rsg.NodeID]struct{}{xn.ID: {}}
		for _, l := range g.OutLinks(xn.ID) {
			if _, ok := seen[l.Dst]; !ok {
				seen[l.Dst] = struct{}{}
				targets = append(targets, l.Dst)
			}
		}
	}
	if len(targets) == 0 {
		return "", true
	}
	k.inhabited = g.InhabitedNodes()
	anchored := k.anchoredNodes(targets)
	for _, t := range targets {
		if !anchored[t] {
			return fmt.Sprintf("node %s may lose its last reference", g.Node(t)), false
		}
	}
	return "", true
}

// kill describes one statement's reference-kill effect on one graph.
type kill struct {
	graph      *rsg.Graph
	kind       killKind
	xn         rsg.NodeID // target of the killed/freed pvar x, or source of the killed selector
	killedPvar rsg.Sym    // pvar whose reference dies (killPvar, killFree)
	killedSel  rsg.Sym    // selector whose reference from xn dies (killSel)
	freed      bool       // xn's cell is deallocated (killFree)
	// inhabited holds the nodes that represent a location in every
	// configuration the graph covers (rsg.Graph.InhabitedNodes).
	inhabited map[rsg.NodeID]bool
}

// anchoredNodes computes the set of nodes whose every represented cell
// is definitely still reachable from the pvars after the kill, as a
// least fixed point over definite evidence:
//
//   - Nodes outside the may-reach cone of the kill never lose a path:
//     all their concrete access paths avoid the killed references
//     (any path using a killed reference immediately enters the cone).
//   - A singleton referenced by a surviving pvar is anchored.
//   - A singleton with a surviving definite link from an anchored,
//     inhabited source is anchored. Inhabited (rsg.Graph.InhabitedNodes)
//     means the source represents a location in every configuration the
//     graph covers; after JOIN a node may be empty in some of them, and
//     there its definite link proves nothing.
//   - A node with a definite SELIN selector is anchored when every
//     possible source of that selector is anchored and none of the
//     selector's references died (each represented cell keeps at least
//     one reference from a reachable cell).
//
// The freed node never anchors anything: its outgoing references die
// with the cell. Starting from "not anchored" makes circular
// justification (garbage cycles) fail, which is exactly the
// conservative direction.
func (k *kill) anchoredNodes(entries []rsg.NodeID) map[rsg.NodeID]bool {
	g := k.graph

	// May-reach cone of the killed references.
	cone := make(map[rsg.NodeID]bool)
	stack := append([]rsg.NodeID(nil), entries...)
	if k.freed {
		stack = append(stack, k.xn)
	}
	for _, id := range stack {
		cone[id] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.OutLinks(id) {
			if !cone[l.Dst] {
				cone[l.Dst] = true
				stack = append(stack, l.Dst)
			}
		}
	}

	anchored := make(map[rsg.NodeID]bool, g.NumNodes())
	for _, n := range g.Nodes() {
		if !cone[n.ID] && !(k.freed && n.ID == k.xn) {
			anchored[n.ID] = true
		}
	}

	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			if anchored[n.ID] || (k.freed && n.ID == k.xn) {
				continue
			}
			if k.nodeAnchored(n, anchored) {
				anchored[n.ID] = true
				changed = true
			}
		}
	}
	return anchored
}

// nodeAnchored evaluates the evidence rules for one node against the
// current anchored set.
func (k *kill) nodeAnchored(n *rsg.Node, anchored map[rsg.NodeID]bool) bool {
	g := k.graph
	if n.Singleton {
		for _, p := range g.PvarsOf(n.ID) {
			if rsg.PvarSym(p) != k.killedPvar {
				return true
			}
		}
		for _, l := range g.InLinks(n.ID) {
			src := l.Src
			if !anchored[src] || !k.inhabited[src] || (k.freed && src == k.xn) {
				continue
			}
			sel := rsg.SelSym(l.Sel)
			if k.kind == killSel && src == k.xn && sel == k.killedSel {
				continue
			}
			if g.DefiniteLinkSym(src, sel, n.ID) {
				return true
			}
		}
	}
	var ok bool
	n.SelIn.EachSym(func(sel rsg.Sym) {
		if ok {
			return
		}
		if k.kind == killSel && sel == k.killedSel && k.sourcedFromXn(n.ID, sel) {
			return // the killed reference may have been a cell's only one
		}
		srcs := k.graph.SourcesSym(n.ID, sel)
		if len(srcs) == 0 {
			return
		}
		for _, m := range srcs {
			if !anchored[m] || (k.freed && m == k.xn) {
				return
			}
		}
		ok = true
	})
	return ok
}

// sourcedFromXn reports whether xn is among the possible sel sources of
// the node.
func (k *kill) sourcedFromXn(id rsg.NodeID, sel rsg.Sym) bool {
	for _, m := range k.graph.SourcesSym(id, sel) {
		if m == k.xn {
			return true
		}
	}
	return false
}

// met adapts a Checker's alarm enumeration to the Goal criterion.
func met(c Checker, res *analysis.Result) (bool, string) {
	alarms := c.Alarms(res)
	if len(alarms) == 0 {
		return true, "no alarms"
	}
	return false, alarms[0].String()
}
