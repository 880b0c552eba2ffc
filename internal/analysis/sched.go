package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// Fixpoint scheduling (DESIGN.md §14). The engine visits pending
// statements with Bourdoncle's recursive iteration strategy over the
// weak topological order: each loop component is stabilized to a local
// fixed point before the order advances past it, so an inner-loop
// ripple never re-fires outer statements. The in-state accumulation
// makes the dataflow monotone under any order, but the order still
// decides how many visits the fixed point costs, and, because in-states
// keep transient predecessor outs, which fixed point it reaches.

// wtoSched implements the recursive iteration strategy over the WTO.
// pending is the usual per-statement bitmap; pendingIn[c] counts the
// pending statements inside component c's range (heads count in their
// own component), maintained along the Encl/Parent chain on every
// push/clear, so a sweep skips entire stabilized components in O(1)
// and a component's stabilization loop has an exact termination test.
type wtoSched struct {
	w            *ir.WTO
	pending      []bool
	pendingTotal int
	visited      int
	pendingIn    []int
	stabs        int
}

func newWTOSched(prog *ir.Program) *wtoSched {
	w := prog.WTO()
	return &wtoSched{
		w:         w,
		pending:   make([]bool, len(prog.Stmts)),
		pendingIn: make([]int, len(w.Comps)),
	}
}

func (s *wtoSched) push(id int) bool {
	if s.pending[id] {
		return false
	}
	s.pending[id] = true
	s.pendingTotal++
	for c := s.w.Encl[s.w.Pos[id]]; c >= 0; c = s.w.Comps[c].Parent {
		s.pendingIn[c]++
	}
	return true
}

func (s *wtoSched) clear(id int) {
	s.pending[id] = false
	s.pendingTotal--
	s.visited++
	for c := s.w.Encl[s.w.Pos[id]]; c >= 0; c = s.w.Comps[c].Parent {
		s.pendingIn[c]--
	}
}

func (s *wtoSched) run(visit func(int) error) error {
	// One top-level sweep visits every pending statement: by the WTO
	// property, a visit can only push statements behind the cursor when
	// they share a component with it, and stabilize() does not advance
	// past a component until nothing inside is pending. A fixed point
	// mid-run can still re-arm earlier top-level positions in theory
	// (it cannot — edges backward in the order stay inside components —
	// but the outer loop and progress check make that assumption
	// checkable rather than load-bearing).
	for s.pendingTotal > 0 {
		visited := s.visited
		if err := s.sweep(0, len(s.w.Order), visit); err != nil {
			return err
		}
		if s.pendingTotal > 0 && s.visited == visited {
			return fmt.Errorf("analysis: wto scheduler made no progress with %d pending statements", s.pendingTotal)
		}
	}
	return nil
}

// sweep advances through positions [start, end), visiting pending
// plain statements in order and stabilizing components whose range
// holds any pending statement; stabilized components are skipped
// wholesale.
func (s *wtoSched) sweep(start, end int, visit func(int) error) error {
	for pos := start; pos < end; {
		if c := s.w.HeadComp[pos]; c >= 0 {
			if s.pendingIn[c] > 0 {
				if err := s.stabilize(c, visit); err != nil {
					return err
				}
			}
			pos = s.w.Comps[c].End
			continue
		}
		if id := s.w.Order[pos]; s.pending[id] {
			s.clear(id)
			if err := visit(id); err != nil {
				return err
			}
		}
		pos++
	}
	return nil
}

// stabilize iterates component c — head first, then its body in order
// (inner components recursively stabilized) — until nothing inside it
// is pending. Only then does the enclosing sweep move on, so outer
// statements never re-fire on an inner ripple.
func (s *wtoSched) stabilize(c int, visit func(int) error) error {
	head := s.w.Comps[c].Head
	start, end := s.w.Comps[c].Start, s.w.Comps[c].End
	for s.pendingIn[c] > 0 {
		s.stabs++
		if s.pending[head] {
			s.clear(head)
			if err := visit(head); err != nil {
				return err
			}
		}
		if err := s.sweep(start+1, end, visit); err != nil {
			return err
		}
	}
	return nil
}
