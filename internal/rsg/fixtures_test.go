package rsg

import "math/rand"

// Test fixtures shared across the rsg test files.

// dlist builds the paper's Fig. 1(a) RSG: a doubly-linked list of two
// or more elements, with pvar x referencing the first element and
// (optionally) pvar last referencing the final one.
//
//	n1: first element   (singleton)
//	n2: middle elements (summary)
//	n3: last element    (singleton)
//
// Links: n1 -nxt-> {n2,n3}; n2 -nxt-> {n2,n3}; n2 -prv-> {n2,n1};
// n3 -prv-> {n2,n1}.
func dlist(withLast bool) (*Graph, *Node, *Node, *Node) {
	g := NewGraph()

	n1 := NewNode("elem")
	n1.Singleton = true
	n1.MarkDefiniteIn("prv")
	n1.MarkDefiniteOut("nxt")
	n1.Cycle.Add(CyclePair{Out: "nxt", In: "prv"})
	g.AddNode(n1)

	n2 := NewNode("elem")
	n2.Singleton = false
	n2.Shared = true // middles carry one nxt-in and one prv-in reference
	n2.MarkDefiniteIn("nxt")
	n2.MarkDefiniteIn("prv")
	n2.MarkDefiniteOut("nxt")
	n2.MarkDefiniteOut("prv")
	n2.Cycle.Add(CyclePair{Out: "nxt", In: "prv"})
	n2.Cycle.Add(CyclePair{Out: "prv", In: "nxt"})
	g.AddNode(n2)

	n3 := NewNode("elem")
	n3.Singleton = true
	n3.MarkDefiniteIn("nxt")
	n3.MarkDefiniteOut("prv")
	n3.Cycle.Add(CyclePair{Out: "prv", In: "nxt"})
	g.AddNode(n3)

	g.AddLink(n1.ID, "nxt", n2.ID)
	g.AddLink(n1.ID, "nxt", n3.ID)
	g.AddLink(n2.ID, "nxt", n2.ID)
	g.AddLink(n2.ID, "nxt", n3.ID)
	g.AddLink(n2.ID, "prv", n2.ID)
	g.AddLink(n2.ID, "prv", n1.ID)
	g.AddLink(n3.ID, "prv", n2.ID)
	g.AddLink(n3.ID, "prv", n1.ID)

	g.SetPvar("x", n1.ID)
	if withLast {
		g.SetPvar("last", n3.ID)
	}
	return g, n1, n2, n3
}

// slist builds a singly-linked list RSG of two or more elements with
// pvar head at the front:
//
//	h: first element (singleton), m: middles (summary), t: last (singleton)
func slist() (*Graph, *Node, *Node, *Node) {
	g := NewGraph()

	h := NewNode("node")
	h.Singleton = true
	h.MarkDefiniteOut("nxt")
	g.AddNode(h)

	m := NewNode("node")
	m.MarkDefiniteIn("nxt")
	m.MarkDefiniteOut("nxt")
	g.AddNode(m)

	t := NewNode("node")
	t.Singleton = true
	t.MarkDefiniteIn("nxt")
	g.AddNode(t)

	g.AddLink(h.ID, "nxt", m.ID)
	g.AddLink(h.ID, "nxt", t.ID)
	g.AddLink(m.ID, "nxt", m.ID)
	g.AddLink(m.ID, "nxt", t.ID)

	g.SetPvar("head", h.ID)
	return g, h, m, t
}

// kernelGraphs returns, for one seed, the graph forms the positional
// kernels must handle: a random graph; a copy with holes in its ID
// range from random RemoveNode/AddNode; a clone of that grown by
// AddNode; its codec round trip (frozen); and a clone of the decoded
// graph grown by AddNode.
func kernelGraphs(seed int64) []*Graph {
	r := rand.New(rand.NewSource(seed))
	base := randomGraph(r)
	if seed&1 == 1 {
		base = buildRandomGraph(r)
	}
	holey := base.Clone()
	for k := 2 + r.Intn(6); k > 0; k-- {
		if ids := holey.NodeIDs(); len(ids) > 0 && r.Intn(2) == 0 {
			holey.RemoveNode(ids[r.Intn(len(ids))])
		} else {
			addRandomNode(r, holey)
		}
	}
	grown := holey.Clone()
	addRandomNode(r, grown)
	dec, err := DecodeFrozen(EncodeFrozen(holey.Clone().Freeze()))
	if err != nil {
		panic(err)
	}
	decGrown := dec.Clone()
	addRandomNode(r, decGrown)
	return []*Graph{base, holey, grown, dec, decGrown}
}

// addRandomNode adds one node with random links to and from the
// existing nodes, and sometimes points a pvar at it.
func addRandomNode(r *rand.Rand, g *Graph) {
	sels := []string{"nxt", "s", "u"}
	pvars := []string{"p", "q", "r"}
	n := g.AddNode(NewNode("a"))
	ids := g.NodeIDs()
	for k := r.Intn(4); k > 0; k-- {
		g.AddLink(ids[r.Intn(len(ids))], sels[r.Intn(len(sels))], n.ID)
	}
	for k := r.Intn(3); k > 0; k-- {
		g.AddLink(n.ID, sels[r.Intn(len(sels))], ids[r.Intn(len(ids))])
	}
	if r.Intn(2) == 0 {
		g.SetPvar(pvars[r.Intn(len(pvars))], n.ID)
	}
}
