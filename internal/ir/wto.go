package ir

// Weak topological order (Bourdoncle 1993): a hierarchical total order
// of the CFG in which every cycle is confined to a *component* — a
// head vertex followed by a nested sub-order of the component body.
// The defining property is that every edge u -> v that goes backward
// or stays put in the order (Pos[v] <= Pos[u]) targets the head of a
// component containing u. A fixpoint engine that stabilizes each
// component before moving past it (the "recursive iteration strategy")
// therefore never revisits a statement because of a ripple that is
// still confined to an inner loop (DESIGN.md §14).
//
// The construction is Bourdoncle's adaptation of Tarjan's SCC
// algorithm: a DFS numbers vertices, a stack collects candidate
// component members, and when an SCC is recognized its interior is
// un-numbered and re-traversed to decompose nested sub-components
// recursively.

// WTO is the flattened weak topological order of a Program's CFG.
// Order lists statement IDs; components are contiguous ranges of it
// described by Comps. Statements unreachable from the entry are
// appended after the reachable order as trivial (non-component)
// vertices.
type WTO struct {
	// Order is the weak topological order of statement IDs.
	Order []int
	// Pos is the inverse permutation: Pos[id] is id's index in Order.
	Pos []int
	// HeadComp[pos] is the index into Comps of the component headed at
	// Order[pos], or -1 when Order[pos] is not a component head.
	HeadComp []int
	// Encl[pos] is the index of the innermost component whose range
	// contains pos, or -1 at the top level. A head belongs to its own
	// component: Encl[Comps[c].Start] == c.
	Encl []int
	// Depth[pos] is the component-nesting depth of Order[pos]
	// (0 = top level; a head is at its component's depth).
	Depth []int
	// Comps lists the components in order of their heads' positions.
	Comps []WTOComp
}

// WTOComp is one component (loop) of a weak topological order.
type WTOComp struct {
	// Head is the statement ID of the component head.
	Head int
	// Start is the head's position in Order; End is the exclusive end
	// of the component's range. Start < End always (the range includes
	// at least the head; a self-loop is a component of size one).
	Start, End int
	// Parent is the index of the enclosing component, or -1.
	Parent int
}

// wtoNode is a node of the hierarchical order before flattening:
// either a plain vertex (comp == false) or a component with a head
// and a nested body order.
type wtoNode struct {
	id   int
	comp bool
	body []*wtoNode
}

// WTO computes the weak topological order of the statement CFG with
// Bourdoncle's recursive-SCC algorithm. The result is a pure function
// of the CFG shape (Succs and Entry), which the program digest already
// covers; schedule choice is keyed separately in the analysis options
// fingerprint.
func (p *Program) WTO() *WTO {
	n := len(p.Stmts)
	const done = int(^uint(0) >> 1) // +inf sentinel: vertex fully placed
	dfn := make([]int, n)
	num := 0
	stack := make([]int, 0, n)

	var visit func(v int, partition *[]*wtoNode) int
	var component func(v int) *wtoNode

	visit = func(v int, partition *[]*wtoNode) int {
		stack = append(stack, v)
		num++
		dfn[v] = num
		head := dfn[v]
		loop := false
		for _, w := range p.Stmts[v].Succs {
			var min int
			if dfn[w] == 0 {
				min = visit(w, partition)
			} else {
				min = dfn[w]
			}
			if min <= head {
				head = min
				loop = true
			}
		}
		if head == dfn[v] {
			dfn[v] = done
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if loop {
				// Un-number the component's interior so component() can
				// re-traverse it and decompose nested cycles.
				for top != v {
					dfn[top] = 0
					top = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				}
				*partition = append(*partition, component(v))
			} else {
				*partition = append(*partition, &wtoNode{id: v})
			}
		}
		return head
	}

	component = func(v int) *wtoNode {
		var body []*wtoNode
		for _, w := range p.Stmts[v].Succs {
			if dfn[w] == 0 {
				visit(w, &body)
			}
		}
		reverseNodes(body)
		return &wtoNode{id: v, comp: true, body: body}
	}

	var top []*wtoNode
	if n > 0 {
		visit(p.Entry, &top)
	}
	// visit() builds partitions in postorder (it appends each element
	// when its subtree completes); the WTO is the reverse.
	reverseNodes(top)
	// Unreachable statements: trivial trailing vertices in ID order.
	for id := 0; id < n; id++ {
		if dfn[id] == 0 {
			top = append(top, &wtoNode{id: id})
		}
	}

	w := &WTO{
		Order:    make([]int, 0, n),
		Pos:      make([]int, n),
		HeadComp: make([]int, 0, n),
		Encl:     make([]int, 0, n),
		Depth:    make([]int, 0, n),
	}
	var flatten func(nodes []*wtoNode, encl, depth int)
	flatten = func(nodes []*wtoNode, encl, depth int) {
		for _, nd := range nodes {
			pos := len(w.Order)
			w.Order = append(w.Order, nd.id)
			w.Pos[nd.id] = pos
			if !nd.comp {
				w.HeadComp = append(w.HeadComp, -1)
				w.Encl = append(w.Encl, encl)
				w.Depth = append(w.Depth, depth)
				continue
			}
			c := len(w.Comps)
			w.Comps = append(w.Comps, WTOComp{Head: nd.id, Start: pos, Parent: encl})
			w.HeadComp = append(w.HeadComp, c)
			w.Encl = append(w.Encl, c)
			w.Depth = append(w.Depth, depth)
			flatten(nd.body, c, depth+1)
			w.Comps[c].End = len(w.Order)
		}
	}
	flatten(top, -1, 0)
	return w
}

func reverseNodes(nodes []*wtoNode) {
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
}

// InComponent reports whether position pos lies inside component c's
// range (head included).
func (w *WTO) InComponent(c, pos int) bool {
	return pos >= w.Comps[c].Start && pos < w.Comps[c].End
}

// String renders the order in Bourdoncle's parenthesized notation,
// e.g. "0 1 (2 3 (4 5) 6) 7" — component bodies in parentheses after
// their head. Debug/test aid.
func (w *WTO) String() string {
	var b []byte
	depth := 0
	for pos, id := range w.Order {
		for depth > 0 && w.componentEndsAt(pos, depth) {
			b = append(b, ')')
			depth--
		}
		if pos > 0 {
			b = append(b, ' ')
		}
		if c := w.HeadComp[pos]; c >= 0 {
			b = append(b, '(')
			depth++
		}
		b = appendInt(b, id)
	}
	for depth > 0 {
		b = append(b, ')')
		depth--
	}
	return string(b)
}

// componentEndsAt reports whether some currently-open component's
// range ends exactly at pos, i.e. Depth drops below the current depth.
func (w *WTO) componentEndsAt(pos, depth int) bool {
	// Depth[pos] counts enclosing components of the element at pos; a
	// head's own component opens after it is printed, so a head at
	// depth d has Depth d and sits inside d open parens before its own.
	d := w.Depth[pos]
	return d < depth
}

func appendInt(b []byte, x int) []byte {
	if x < 0 {
		b = append(b, '-')
		x = -x
	}
	if x >= 10 {
		b = appendInt(b, x/10)
	}
	return append(b, byte('0'+x%10))
}
