package ir

import "testing"

// cfg hand-builds a Program skeleton from an adjacency list; only the
// fields WTO reads (Stmts' Succs and Entry) are populated.
func cfg(entry int, succs [][]int) *Program {
	p := &Program{Entry: entry}
	for id := range succs {
		p.Stmts = append(p.Stmts, &Stmt{ID: id, Succs: succs[id]})
	}
	return p
}

// checkWTO verifies the structural invariants of a weak topological
// order: Order is a permutation of all statement IDs with Pos its
// inverse, components are properly nested contiguous ranges headed by
// their first element, Encl/Depth agree with the component ranges, and
// every backward-or-stationary edge targets the head of a component
// containing its source — the property the recursive iteration
// strategy rests on.
func checkWTO(t *testing.T, p *Program, w *WTO) {
	t.Helper()
	n := len(p.Stmts)
	if len(w.Order) != n || len(w.Pos) != n {
		t.Fatalf("order covers %d of %d statements", len(w.Order), n)
	}
	for pos, id := range w.Order {
		if w.Pos[id] != pos {
			t.Fatalf("Pos[%d]=%d, want %d", id, w.Pos[id], pos)
		}
	}
	for c, comp := range w.Comps {
		if comp.Start >= comp.End || comp.End > n {
			t.Fatalf("component %d has range [%d,%d)", c, comp.Start, comp.End)
		}
		if w.Order[comp.Start] != comp.Head {
			t.Fatalf("component %d headed by %d but starts with %d", c, comp.Head, w.Order[comp.Start])
		}
		if w.HeadComp[comp.Start] != c {
			t.Fatalf("HeadComp[%d]=%d, want %d", comp.Start, w.HeadComp[comp.Start], c)
		}
		if comp.Parent >= 0 {
			par := w.Comps[comp.Parent]
			if comp.Start <= par.Start || comp.End > par.End {
				t.Fatalf("component %d [%d,%d) not nested in parent %d [%d,%d)",
					c, comp.Start, comp.End, comp.Parent, par.Start, par.End)
			}
		}
	}
	for pos := range w.Order {
		depth := 0
		for c := w.Encl[pos]; c >= 0; c = w.Comps[c].Parent {
			if !w.InComponent(c, pos) {
				t.Fatalf("pos %d has Encl chain component %d [%d,%d) not containing it",
					pos, c, w.Comps[c].Start, w.Comps[c].End)
			}
			depth++
		}
		// A head sits at its component's depth; its Encl chain includes
		// its own component, so the chain is one longer.
		want := depth
		if w.HeadComp[pos] >= 0 {
			want--
		}
		if w.Depth[pos] != want {
			t.Fatalf("Depth[%d]=%d, want %d", pos, w.Depth[pos], want)
		}
	}
	for _, s := range p.Stmts {
		for _, succ := range s.Succs {
			u, v := w.Pos[s.ID], w.Pos[succ]
			if v > u {
				continue
			}
			c := w.HeadComp[v]
			if c < 0 {
				t.Fatalf("backward edge %d->%d targets non-head (pos %d -> %d)", s.ID, succ, u, v)
			}
			if !w.InComponent(c, u) {
				t.Fatalf("backward edge %d->%d leaves its target's component [%d,%d)",
					s.ID, succ, w.Comps[c].Start, w.Comps[c].End)
			}
		}
	}
}

func TestWTOStraightLine(t *testing.T) {
	p := cfg(0, [][]int{{1}, {2}, {3}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if len(w.Comps) != 0 {
		t.Fatalf("loop-free CFG got %d components", len(w.Comps))
	}
	if got := w.String(); got != "0 1 2 3" {
		t.Fatalf("order %q", got)
	}
}

func TestWTOSimpleLoop(t *testing.T) {
	// 0 -> 1 <-> 2, 1 -> 3
	p := cfg(0, [][]int{{1}, {2, 3}, {1}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if got := w.String(); got != "0 (1 2) 3" {
		t.Fatalf("order %q", got)
	}
	if len(w.Comps) != 1 || w.Comps[0].Head != 1 || w.Comps[0].Parent != -1 {
		t.Fatalf("components %+v", w.Comps)
	}
}

func TestWTONestedLoops(t *testing.T) {
	// 0 -> 1 -> 2 <-> 3, 2-loop exits to 4 -> 1, 4 -> 5
	p := cfg(0, [][]int{{1}, {2}, {3, 4}, {2}, {1, 5}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if got := w.String(); got != "0 (1 (2 3) 4) 5" {
		t.Fatalf("order %q", got)
	}
	if len(w.Comps) != 2 {
		t.Fatalf("want 2 components, got %+v", w.Comps)
	}
	var outer, inner *WTOComp
	for i := range w.Comps {
		switch w.Comps[i].Head {
		case 1:
			outer = &w.Comps[i]
		case 2:
			inner = &w.Comps[i]
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("components %+v", w.Comps)
	}
	if inner.Parent < 0 || w.Comps[inner.Parent].Head != 1 {
		t.Fatalf("inner loop's parent is not the outer loop: %+v", w.Comps)
	}
	if outer.Parent != -1 {
		t.Fatalf("outer loop has a parent: %+v", w.Comps)
	}
}

func TestWTOSelfLoop(t *testing.T) {
	p := cfg(0, [][]int{{1}, {1, 2}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if got := w.String(); got != "0 (1) 2" {
		t.Fatalf("order %q", got)
	}
}

func TestWTOIrreducible(t *testing.T) {
	// Two-entry loop: 0 branches to 1 and 2, 1 <-> 2 — no dominating
	// header exists, but the WTO property must still hold (one of the
	// two becomes the component head).
	p := cfg(0, [][]int{{1, 2}, {2, 3}, {1, 3}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if len(w.Comps) != 1 {
		t.Fatalf("want 1 component, got %+v", w.Comps)
	}
}

func TestWTOUnreachableAppended(t *testing.T) {
	// 3 and 4 are unreachable from the entry (4 even loops back to 3).
	p := cfg(0, [][]int{{1}, {2}, {}, {4}, {}})
	w := p.WTO()
	if len(w.Order) != 5 {
		t.Fatalf("order %v misses statements", w.Order)
	}
	if w.Pos[3] < 3 || w.Pos[4] < 3 {
		t.Fatalf("unreachable statements ordered before reachable ones: %v", w.Order)
	}
	// Unreachable statements are trivial vertices even when they form
	// cycles among themselves: they are never scheduled, so no
	// component structure is needed.
	for _, comp := range w.Comps {
		if comp.Head == 3 || comp.Head == 4 {
			t.Fatalf("unreachable statement heads a component: %+v", w.Comps)
		}
	}
}

func TestWTOLoopWithIfAndTail(t *testing.T) {
	// while (c) { if (d) {5} else {6} } with a diamond in the body and
	// a loop tail joining back to the head.
	//   0 -> 1(head) -> 2 -> {3,4} -> 5 -> 1, 1 -> 6
	p := cfg(0, [][]int{{1}, {2, 6}, {3, 4}, {5}, {5}, {1}, {}})
	w := p.WTO()
	checkWTO(t, p, w)
	if len(w.Comps) != 1 || w.Comps[0].Head != 1 {
		t.Fatalf("components %+v", w.Comps)
	}
	if w.Comps[0].End-w.Comps[0].Start != 5 {
		t.Fatalf("component should span head+4 body statements: %+v (order %v)", w.Comps, w.Order)
	}
}
