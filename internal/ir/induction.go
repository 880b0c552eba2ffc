package ir

// This file identifies induction pointer variables: the pvars a loop
// uses to traverse recursive data structures. The paper (Sect. 3)
// restricts TOUCH sets to these pvars — following Hwang and Saltz's
// access-path-expression analysis — to avoid a node explosion at
// analysis level L3.
//
// The criterion implemented here is the APE cycle test: pvar p is an
// induction pvar of loop L when the body of L contains a def-use cycle
// from p back to p built from copies (x = y) and loads (x = y->sel)
// that traverses at least one load — i.e. each iteration advances p
// along a selector path, directly (p = p->next) or through temporaries
// (t = p->next; p = t).

// AnnotateInduction computes the induction pvar set of every loop and
// stores it in the loops' Induction fields, and returns the union over
// all loops. The pass runs once per program; later calls, from any
// goroutine, return the same union after the first has finished, so
// concurrent analyses may share the program. Callers must not modify
// the returned map.
func (p *Program) AnnotateInduction() map[string]struct{} {
	p.inductionOnce.Do(func() {
		p.induction = make(map[string]struct{})
		for _, loop := range p.Loops {
			loop.Induction = p.loopInduction(loop)
			for pv := range loop.Induction {
				p.induction[pv] = struct{}{}
			}
		}
	})
	return p.induction
}

// defUseEdge is one def-use step: dst gets its value from src,
// advancing `weight` selectors (0 for copies, 1 for loads).
type defUseEdge struct {
	dst    string
	weight int
}

// loopInduction runs the cycle test for one loop.
func (p *Program) loopInduction(loop *Loop) map[string]struct{} {
	adj := make(map[string][]defUseEdge)
	vars := make(map[string]struct{})
	for id := range loop.Body {
		s := p.Stmt(id)
		switch s.Op {
		case OpCopy:
			adj[s.Y] = append(adj[s.Y], defUseEdge{dst: s.X, weight: 0})
			vars[s.X] = struct{}{}
			vars[s.Y] = struct{}{}
		case OpLoad:
			adj[s.Y] = append(adj[s.Y], defUseEdge{dst: s.X, weight: 1})
			vars[s.X] = struct{}{}
			vars[s.Y] = struct{}{}
		}
	}

	out := make(map[string]struct{})
	for v := range vars {
		if hasAdvancingCycle(adj, v) {
			out[v] = struct{}{}
		}
	}
	return out
}

// hasAdvancingCycle reports whether start can reach itself through the
// def-use edges with at least one load on the way.
func hasAdvancingCycle(adj map[string][]defUseEdge, start string) bool {
	// State: (pvar, sawLoad). BFS over at most 2*|vars| states.
	type state struct {
		v       string
		sawLoad bool
	}
	seen := map[state]struct{}{}
	queue := []state{{start, false}}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for _, e := range adj[st.v] {
			ns := state{e.dst, st.sawLoad || e.weight > 0}
			if ns.v == start && ns.sawLoad {
				return true
			}
			if _, ok := seen[ns]; ok {
				continue
			}
			seen[ns] = struct{}{}
			queue = append(queue, ns)
		}
	}
	return false
}
