package rsg

import (
	"sync"
	"testing"
)

// buildChain returns an unfrozen list-shaped graph of the given length
// whose canonical form depends only on length (and pvar name), so
// concurrent builders can create structurally identical graphs
// independently.
func buildChain(pvar string, length int) *Graph {
	g := NewGraph()
	var prev *Node
	for i := 0; i < length; i++ {
		n := NewNode("node")
		n.Singleton = true
		g.AddNode(n)
		if prev == nil {
			g.SetPvar(pvar, n.ID)
		} else {
			g.AddLink(prev.ID, "nxt", n.ID)
			prev.MarkDefiniteOut("nxt")
			n.MarkDefiniteIn("nxt")
		}
		prev = n
	}
	return g
}

// TestInternConcurrent hammers the sharded interner from many
// goroutines with a mix of identical and distinct graphs: every
// goroutine interning a structurally identical graph must receive the
// same canonical instance, and distinct shapes must stay distinct. Each
// worker holds the instances it received until the end, so no canonical
// instance can be collected and replaced while the test runs. Run with
// -race to exercise the shard locking.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	const shapes = 8
	const rounds = 50

	canon := make([][]*Graph, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]*Graph, shapes)
			for r := 0; r < rounds; r++ {
				for s := 0; s < shapes; s++ {
					g := Intern(buildChain("p", s+1))
					if got[s] == nil {
						got[s] = g
					} else if got[s] != g {
						t.Errorf("worker %d shape %d: a second instance while the first is held", w, s)
					}
					if !g.Frozen() {
						t.Errorf("worker %d: interned graph not frozen", w)
					}
				}
			}
			canon[w] = got
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for s := 0; s < shapes; s++ {
		for w := 1; w < goroutines; w++ {
			if canon[w][s] != canon[0][s] {
				t.Fatalf("shape %d: worker %d holds another canonical instance", s, w)
			}
		}
	}
	for s := 1; s < shapes; s++ {
		if canon[0][s].Digest() == canon[0][s-1].Digest() {
			t.Fatalf("shapes %d and %d collide", s-1, s)
		}
	}
}

// TestFrozenGraphSharedReads exercises the read paths of one frozen
// graph from many goroutines (the sharing pattern of the parallel
// engine); run with -race to verify freeze-time caches are safe to
// share.
func TestFrozenGraphSharedReads(t *testing.T) {
	g := buildChain("p", 6)
	g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = g.Digest()
				_ = g.NodeIDs()
				_ = g.Pvars()
				_ = g.spathSets()
				_ = g.Links()
				_ = AliasKey(g)
				for _, id := range g.NodeIDs() {
					_ = g.Targets(id, "nxt")
					_ = g.OutSelectors(id)
				}
				c := g.Clone()
				if c.NumNodes() != g.NumNodes() {
					t.Error("clone lost nodes")
					return
				}
			}
		}()
	}
	wg.Wait()
}
