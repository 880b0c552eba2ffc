package rsg

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Link is one NL entry <Src, Sel, Dst>: locations represented by Src may
// reference locations represented by Dst through selector Sel.
type Link struct {
	Src NodeID
	Sel string
	Dst NodeID
}

// String renders the link as "<n1,sel,n2>".
func (l Link) String() string {
	return fmt.Sprintf("<n%d,%s,n%d>", l.Src, l.Sel, l.Dst)
}

// edge is the internal NL encoding: one entry of a flat sorted slice.
// In outE, a is the source and b the destination; in inE, a is the
// destination and b the source. Selectors are interned Syms; ordering
// uses the selector's name rank, so iterating a slice yields names in
// lexicographic order (later interns never reorder existing ranks
// relative to each other, so sortedness is permanent).
type edge struct {
	a   NodeID
	sel Sym
	b   NodeID
}

// plEntry is one PL entry pvar -> node, kept sorted by pvar name rank.
type plEntry struct {
	sym Sym // interned pvar name
	id  NodeID
}

// Graph is one Reference Shape Graph: RSG = (N, P, S, PL, NL).
// The pvar set P and selector set S are implicit (P is the domain the
// program declares; S is derivable from the type table); the graph
// stores N, PL and NL. Within one RSG a pvar references at most one
// node: a pointer variable holds a single value per concrete
// configuration and the abstract semantics keep the distinct
// possibilities in distinct RSGs of the RSRSG.
//
// The representation is flat (DESIGN.md §10): nodes live in a pair of
// parallel slices sorted by ID, PL is a small sorted slice, and NL is a
// pair of sorted edge slices (forward and reverse). Lookups are binary
// searches, iteration is linear and allocation-free, and Clone is a
// handful of slice copies.
type Graph struct {
	ids    []NodeID  // distinct, ascending, in [1, nextID] (see posOf)
	nodes  []*Node   // parallel to ids
	pl     []plEntry // sorted by pvar name rank
	outE   []edge    // sorted by (src, rank(sel), dst)
	inE    []edge    // sorted by (dst, src, rank(sel))
	nextID NodeID

	// Freeze contract (see freeze.go): once frozen, every mutating
	// method panics, the alias key and SPATH sets are served from the
	// caches built at freeze time, and the canonical digest is memoized.
	// Callers must treat slices returned by a frozen graph as read-only.
	frozen  bool
	digest  Digest
	cAlias  string
	cSPaths []SPathSet // parallel to ids
}

// NewGraph returns an empty RSG (no nodes; every pvar NULL).
func NewGraph() *Graph { return &Graph{} }

// Clone returns a deep copy of the graph. Node IDs are preserved. The
// clone is always mutable, even when the receiver is frozen: cloning is
// the one sanctioned way to derive a new graph from a frozen handle.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ids:    append([]NodeID(nil), g.ids...),
		nodes:  make([]*Node, len(g.nodes)),
		pl:     append([]plEntry(nil), g.pl...),
		outE:   append([]edge(nil), g.outE...),
		inE:    append([]edge(nil), g.inE...),
		nextID: g.nextID,
	}
	// One backing array for every node copy: the value sets inside Node
	// are copy-on-write, so a struct copy is a correct deep clone and
	// the per-node heap allocation of the map era is gone.
	backing := make([]Node, len(g.nodes))
	for i, n := range g.nodes {
		backing[i] = *n
		c.nodes[i] = &backing[i]
	}
	return c
}

// posOf returns the slice position of a node ID, or -1.
//
// IDs are distinct, ascending, at least 1 and at most nextID; AddNode,
// Clone and DecodeFrozen keep that invariant. So at most id-1 IDs
// precede id, and at most h = nextID - len(ids) values below id are
// missing: id's position lies in [id-1-h, min(id, len(ids))). Only that
// window is searched, which is one probe on a graph without holes.
func (g *Graph) posOf(id NodeID) int {
	hi := min(int(id), len(g.ids))
	lo := max(0, int(id)-1-(int(g.nextID)-len(g.ids)))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.ids) && g.ids[lo] == id {
		return lo
	}
	return -1
}

// AddNode inserts n into the graph, assigning it a fresh ID, and
// returns the node.
func (g *Graph) AddNode(n *Node) *Node {
	g.mustMutate("AddNode")
	g.nextID++
	n.ID = g.nextID
	g.ids = append(g.ids, n.ID) // fresh IDs are maximal, order holds
	g.nodes = append(g.nodes, n)
	return n
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if i := g.posOf(id); i >= 0 {
		return g.nodes[i]
	}
	return nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumLinks returns the number of NL entries.
func (g *Graph) NumLinks() int { return len(g.outE) }

// NodeIDs returns all node IDs in ascending order. On a frozen graph
// the internal slice is returned; callers must not modify it.
func (g *Graph) NodeIDs() []NodeID {
	if g.frozen {
		return g.ids
	}
	return append([]NodeID(nil), g.ids...)
}

// Nodes returns all nodes ordered by ID.
func (g *Graph) Nodes() []*Node {
	return append([]*Node(nil), g.nodes...)
}

// plIndex returns the position of pvar sym in pl, or -1.
func (g *Graph) plIndex(sym Sym) int {
	for i := range g.pl {
		if g.pl[i].sym == sym {
			return i
		}
	}
	return -1
}

// SetPvar makes pvar reference the node with the given ID.
func (g *Graph) SetPvar(pvar string, id NodeID) {
	g.SetPvarSym(pvarTab.intern(pvar), id)
}

// SetPvarSym is SetPvar addressed by interned pvar.
func (g *Graph) SetPvarSym(sym Sym, id NodeID) {
	g.mustMutate("SetPvar")
	if g.posOf(id) < 0 {
		panic(fmt.Sprintf("rsg: SetPvar(%s, n%d): no such node", pvarTab.name(sym), id))
	}
	if i := g.plIndex(sym); i >= 0 {
		g.pl[i].id = id
		return
	}
	snap := pvarTab.load()
	r := snap.rankOf(sym)
	i := sort.Search(len(g.pl), func(i int) bool { return snap.rankOf(g.pl[i].sym) >= r })
	g.pl = append(g.pl, plEntry{})
	copy(g.pl[i+1:], g.pl[i:])
	g.pl[i] = plEntry{sym: sym, id: id}
}

// ClearPvar makes pvar NULL.
func (g *Graph) ClearPvar(pvar string) {
	g.ClearPvarSym(pvarTab.lookup(pvar))
}

// ClearPvarSym is ClearPvar addressed by interned pvar.
func (g *Graph) ClearPvarSym(sym Sym) {
	g.mustMutate("ClearPvar")
	if i := g.plIndex(sym); i >= 0 {
		g.pl = append(g.pl[:i], g.pl[i+1:]...)
	}
}

// PvarTarget returns the node a pvar references, or nil when the pvar
// is NULL.
func (g *Graph) PvarTarget(pvar string) *Node {
	return g.PvarTargetSym(pvarTab.lookup(pvar))
}

// PvarTargetSym is PvarTarget addressed by interned pvar.
func (g *Graph) PvarTargetSym(sym Sym) *Node {
	if sym == 0 {
		return nil
	}
	if i := g.plIndex(sym); i >= 0 {
		return g.Node(g.pl[i].id)
	}
	return nil
}

// Pvars returns the pvars with a non-NULL reference, sorted, in a fresh
// slice. No fixpoint path reads it, so freezing does not pin it.
func (g *Graph) Pvars() []string {
	if len(g.pl) == 0 {
		return nil
	}
	out := make([]string, len(g.pl))
	snap := pvarTab.load()
	for i, e := range g.pl {
		out[i] = snap.names[e.sym-1]
	}
	return out
}

// PvarsOf returns the sorted pvars that reference the given node.
func (g *Graph) PvarsOf(id NodeID) []string {
	var out []string
	for _, e := range g.pl {
		if e.id == id {
			out = append(out, pvarTab.name(e.sym))
		}
	}
	return out
}

// pvarReferenced reports whether any pvar references the node.
func (g *Graph) pvarReferenced(id NodeID) bool {
	for _, e := range g.pl {
		if e.id == id {
			return true
		}
	}
	return false
}

// compareOut is outE's order: by source, selector name rank, then
// destination.
func compareOut(snap *symSnap, x, y edge) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	if x.sel != y.sel {
		return cmp.Compare(snap.rank[x.sel-1], snap.rank[y.sel-1])
	}
	return cmp.Compare(x.b, y.b)
}

// compareIn is inE's order: by destination, source, then selector
// name rank.
func compareIn(snap *symSnap, x, y edge) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	if x.b != y.b {
		return cmp.Compare(x.b, y.b)
	}
	if x.sel == y.sel {
		return 0
	}
	return cmp.Compare(snap.rank[x.sel-1], snap.rank[y.sel-1])
}

// outRun returns the contiguous outE entries with source id.
func (g *Graph) outRun(id NodeID) []edge { return edgeRun(g.outE, id) }

// inRun returns the contiguous inE entries with destination id.
func (g *Graph) inRun(id NodeID) []edge { return edgeRun(g.inE, id) }

func edgeRun(edges []edge, id NodeID) []edge {
	lo := sort.Search(len(edges), func(i int) bool { return edges[i].a >= id })
	hi := lo
	for hi < len(edges) && edges[hi].a == id {
		hi++
	}
	return edges[lo:hi]
}

// AddLink inserts the NL entry <src, sel, dst>. It is idempotent.
func (g *Graph) AddLink(src NodeID, sel string, dst NodeID) {
	g.AddLinkSym(src, selTab.intern(sel), dst)
}

// AddLinkSym is AddLink addressed by interned selector.
func (g *Graph) AddLinkSym(src NodeID, sel Sym, dst NodeID) {
	g.mustMutate("AddLink")
	if g.posOf(src) < 0 {
		panic(fmt.Sprintf("rsg: AddLink: no src node n%d", src))
	}
	if g.posOf(dst) < 0 {
		panic(fmt.Sprintf("rsg: AddLink: no dst node n%d", dst))
	}
	snap := selTab.load()
	e := edge{src, sel, dst}
	i := sort.Search(len(g.outE), func(i int) bool { return compareOut(snap, g.outE[i], e) >= 0 })
	if i < len(g.outE) && g.outE[i] == e {
		return
	}
	g.outE = insertEdge(g.outE, i, e)
	f := edge{dst, sel, src}
	j := sort.Search(len(g.inE), func(i int) bool { return compareIn(snap, g.inE[i], f) >= 0 })
	g.inE = insertEdge(g.inE, j, f)
}

func insertEdge(s []edge, i int, e edge) []edge {
	s = append(s, edge{})
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func removeEdgeAt(s []edge, i int) []edge {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// RemoveLink deletes the NL entry <src, sel, dst> if present.
func (g *Graph) RemoveLink(src NodeID, sel string, dst NodeID) {
	g.RemoveLinkSym(src, selTab.lookup(sel), dst)
}

// RemoveLinkSym is RemoveLink addressed by interned selector.
func (g *Graph) RemoveLinkSym(src NodeID, sel Sym, dst NodeID) {
	g.mustMutate("RemoveLink")
	if sel == 0 {
		return
	}
	snap := selTab.load()
	e := edge{src, sel, dst}
	i := sort.Search(len(g.outE), func(i int) bool { return compareOut(snap, g.outE[i], e) >= 0 })
	if i >= len(g.outE) || g.outE[i] != e {
		return
	}
	g.outE = removeEdgeAt(g.outE, i)
	f := edge{dst, sel, src}
	j := sort.Search(len(g.inE), func(i int) bool { return compareIn(snap, g.inE[i], f) >= 0 })
	if j < len(g.inE) && g.inE[j] == f {
		g.inE = removeEdgeAt(g.inE, j)
	}
}

// HasLink reports whether <src, sel, dst> is in NL.
func (g *Graph) HasLink(src NodeID, sel string, dst NodeID) bool {
	return g.HasLinkSym(src, selTab.lookup(sel), dst)
}

// HasLinkSym is HasLink addressed by interned selector.
func (g *Graph) HasLinkSym(src NodeID, sel Sym, dst NodeID) bool {
	if sel == 0 {
		return false
	}
	snap := selTab.load()
	e := edge{src, sel, dst}
	i := sort.Search(len(g.outE), func(i int) bool { return compareOut(snap, g.outE[i], e) >= 0 })
	return i < len(g.outE) && g.outE[i] == e
}

// Targets returns the sorted destinations of src through sel. The
// returned slice is freshly allocated.
func (g *Graph) Targets(src NodeID, sel string) []NodeID {
	return g.TargetsSym(src, selTab.lookup(sel))
}

// TargetsSym is Targets addressed by interned selector.
func (g *Graph) TargetsSym(src NodeID, sel Sym) []NodeID {
	var out []NodeID
	for _, e := range g.outRun(src) {
		if e.sel == sel {
			out = append(out, e.b)
		}
	}
	return out
}

// hasTarget reports whether src has at least one sel destination.
func (g *Graph) hasTarget(src NodeID, sel Sym) bool {
	for _, e := range g.outRun(src) {
		if e.sel == sel {
			return true
		}
	}
	return false
}

// soleTarget returns the single sel destination of src, or ok=false
// when there are zero or several.
func (g *Graph) soleTarget(src NodeID, sel Sym) (NodeID, bool) {
	run := g.outRun(src)
	for i, e := range run {
		if e.sel == sel {
			// Same-sel entries are contiguous.
			if i+1 < len(run) && run[i+1].sel == sel {
				return 0, false
			}
			return e.b, true
		}
	}
	return 0, false
}

// countTargets returns the number of sel destinations of src.
func (g *Graph) countTargets(src NodeID, sel Sym) int {
	n := 0
	for _, e := range g.outRun(src) {
		if e.sel == sel {
			n++
		}
	}
	return n
}

// Sources returns the sorted origins of sel links into dst.
func (g *Graph) Sources(dst NodeID, sel string) []NodeID {
	return g.SourcesSym(dst, selTab.lookup(sel))
}

// SourcesSym is Sources addressed by interned selector.
func (g *Graph) SourcesSym(dst NodeID, sel Sym) []NodeID {
	var out []NodeID
	for _, e := range g.inRun(dst) {
		if e.sel == sel {
			out = append(out, e.b)
		}
	}
	return out
}

// countSources returns the number of sel origins into dst.
func (g *Graph) countSources(dst NodeID, sel Sym) int {
	n := 0
	for _, e := range g.inRun(dst) {
		if e.sel == sel {
			n++
		}
	}
	return n
}

// OutSelectors returns the sorted selectors with at least one outgoing
// link from src. The returned slice is freshly allocated.
func (g *Graph) OutSelectors(src NodeID) []string {
	run := g.outRun(src)
	if len(run) == 0 {
		return nil
	}
	// The run is rank-ordered, so distinct selectors appear in name order.
	out := make([]string, 0, len(run))
	snap := selTab.load()
	var last Sym
	for _, e := range run {
		if e.sel != last {
			out = append(out, snap.names[e.sel-1])
			last = e.sel
		}
	}
	return out
}

// InLinks returns all links into dst, sorted by (Src, Sel).
func (g *Graph) InLinks(dst NodeID) []Link {
	run := g.inRun(dst)
	if len(run) == 0 {
		return nil
	}
	out := make([]Link, len(run))
	snap := selTab.load()
	for i, e := range run {
		out[i] = Link{Src: e.b, Sel: snap.names[e.sel-1], Dst: dst}
	}
	return out
}

// OutLinks returns all links out of src, sorted by (Sel, Dst).
func (g *Graph) OutLinks(src NodeID) []Link {
	run := g.outRun(src)
	if len(run) == 0 {
		return nil
	}
	out := make([]Link, len(run))
	snap := selTab.load()
	for i, e := range run {
		out[i] = Link{Src: src, Sel: snap.names[e.sel-1], Dst: e.b}
	}
	return out
}

// Links returns every NL entry, sorted by (Src, Sel, Dst), in a fresh
// slice. No fixpoint path reads it, so freezing does not pin it.
func (g *Graph) Links() []Link {
	if len(g.outE) == 0 {
		return nil
	}
	out := make([]Link, len(g.outE))
	snap := selTab.load()
	for i, e := range g.outE {
		out[i] = Link{Src: e.a, Sel: snap.names[e.sel-1], Dst: e.b}
	}
	return out
}

// RemoveNode deletes a node, all its links and any pvar references to it.
func (g *Graph) RemoveNode(id NodeID) {
	g.mustMutate("RemoveNode")
	i := g.posOf(id)
	if i < 0 {
		return
	}
	g.outE = filterEdges(g.outE, id)
	g.inE = filterEdges(g.inE, id)
	for j := len(g.pl) - 1; j >= 0; j-- {
		if g.pl[j].id == id {
			g.pl = append(g.pl[:j], g.pl[j+1:]...)
		}
	}
	g.ids = append(g.ids[:i], g.ids[i+1:]...)
	g.nodes = append(g.nodes[:i], g.nodes[i+1:]...)
}

// filterEdges removes every edge touching id, in place.
func filterEdges(edges []edge, id NodeID) []edge {
	out := edges[:0]
	for _, e := range edges {
		if e.a != id && e.b != id {
			out = append(out, e)
		}
	}
	return out
}

// HeapInDegree returns the number of distinct incoming links (any
// selector) into the node — heap references only, pvars excluded.
func (g *Graph) HeapInDegree(id NodeID) int { return len(g.inRun(id)) }

// String renders the graph in a compact deterministic text form.
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString("RSG{\n")
	for _, e := range g.pl {
		fmt.Fprintf(&b, "  %s -> n%d\n", pvarTab.name(e.sym), e.id)
	}
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, l := range g.Links() {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	b.WriteString("}")
	return b.String()
}
