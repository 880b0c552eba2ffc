package rsrsg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rsg"
)

// goExec is a test executor that runs every task in its own goroutine —
// the most adversarial schedule an Exec may use.
func goExec(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(task)
	}
	wg.Wait()
}

// randomGraphs builds a population of list/tree-shaped graphs spread
// over several alias classes so Reduce and MergeDeltaBatch exercise
// multiple buckets with joinable members. Each graph is compressed at
// lvl, the level its caller reduces at: set members are COMPRESS
// fixpoints (Set.Add).
func randomGraphs(r *rand.Rand, n int, lvl rsg.Level) []*rsg.Graph {
	pvarSets := [][]string{{"x"}, {"y"}, {"x", "y"}, {"x", "z"}, {"z"}}
	var out []*rsg.Graph
	for i := 0; i < n; i++ {
		g := rsg.NewGraph()
		root := rsg.NewNode("t")
		root.Singleton = true
		g.AddNode(root)
		for _, p := range pvarSets[r.Intn(len(pvarSets))] {
			g.SetPvar(p, root.ID)
		}
		prev := root
		for k := r.Intn(4); k > 0; k-- {
			c := rsg.NewNode("t")
			c.Singleton = r.Intn(2) == 0
			g.AddNode(c)
			sel := []string{"nxt", "prv"}[r.Intn(2)]
			g.AddLink(prev.ID, sel, c.ID)
			prev.MarkDefiniteOut(sel)
			if c.Singleton {
				c.MarkDefiniteIn(sel)
			} else {
				c.MarkPossibleIn(sel)
			}
			prev = c
		}
		rsg.Compress(g, lvl)
		out = append(out, g)
	}
	return out
}

// TestReduceParallelMatchesSequential asserts the tentpole determinism
// property at the rsrsg layer: Reduce with a concurrent executor must
// produce a set with exactly the digests of the sequential reduction.
func TestReduceParallelMatchesSequential(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L2, rsg.L3} {
		for seed := int64(0); seed < 8; seed++ {
			graphs := randomGraphs(rand.New(rand.NewSource(seed)), 24, lvl)
			seq := New()
			par := New()
			for _, g := range graphs {
				seq.Add(g.Clone())
				par.Add(g.Clone())
			}
			seq.Reduce(lvl, Options{})
			par.Reduce(lvl, Options{Exec: goExec})
			if !seq.Equal(par) {
				t.Fatalf("%v seed %d: parallel Reduce diverged:\nseq %s\npar %s",
					lvl, seed, seq.Signature(), par.Signature())
			}
		}
	}
}

// TestMergeDeltaParallelMatchesSequential folds a stream of
// contribution sets into an accumulator both sequentially and with the
// concurrent executor, comparing membership after every step (the
// engine's in-state accumulation pattern).
func TestMergeDeltaParallelMatchesSequential(t *testing.T) {
	for _, lvl := range []rsg.Level{rsg.L1, rsg.L3} {
		for seed := int64(100); seed < 105; seed++ {
			r := rand.New(rand.NewSource(seed))
			seq, par := New(), New()
			for step := 0; step < 6; step++ {
				contribution := FromGraphs(lvl, randomGraphs(r, 6, lvl), Options{})
				seqChanged := !seq.MergeDeltaBatch(lvl, []*Set{contribution}, Options{}).Empty()
				parChanged := !par.MergeDeltaBatch(lvl, []*Set{contribution}, Options{Exec: goExec}).Empty()
				if seqChanged != parChanged {
					t.Fatalf("%v seed %d step %d: changed verdicts differ (%v vs %v)",
						lvl, seed, step, seqChanged, parChanged)
				}
				if !seq.Equal(par) {
					t.Fatalf("%v seed %d step %d: parallel MergeDeltaBatch diverged:\nseq %s\npar %s",
						lvl, seed, step, seq.Signature(), par.Signature())
				}
			}
		}
	}
}

// TestUnionAllWithExec checks the engine's transfer-join entry point
// under a concurrent executor.
func TestUnionAllWithExec(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var parts []*Set
	for i := 0; i < 5; i++ {
		parts = append(parts, FromGraphs(rsg.L1, randomGraphs(r, 5, rsg.L1), Options{}))
	}
	seq := UnionAll(rsg.L1, parts, Options{})
	par := UnionAll(rsg.L1, parts, Options{Exec: goExec})
	if !seq.Equal(par) {
		t.Fatalf("UnionAll diverged under Exec:\nseq %s\npar %s", seq.Signature(), par.Signature())
	}
	if seq.Len() == 0 {
		t.Fatal("degenerate union")
	}
}

// TestExecTaskIndependence documents that tasks see disjoint buckets:
// a Reduce over many alias classes must hand each class to its own
// task exactly once.
func TestExecTaskIndependence(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		g := mkGraph("t", fmt.Sprintf("p%d", i))
		s.Add(g)
		h := mkGraph("t", fmt.Sprintf("p%d", i))
		extra := rsg.NewNode("t")
		h.AddNode(extra)
		root := h.PvarTarget(fmt.Sprintf("p%d", i))
		h.AddLink(root.ID, "nxt", extra.ID)
		root.MarkDefiniteOut("nxt")
		extra.MarkDefiniteIn("nxt")
		s.Add(h)
	}
	var mu sync.Mutex
	calls := 0
	counting := func(tasks []func()) {
		mu.Lock()
		calls += len(tasks)
		mu.Unlock()
		goExec(tasks)
	}
	s.Reduce(rsg.L1, Options{Exec: counting})
	if calls != 6 {
		t.Fatalf("expected 6 bucket tasks (one per alias class), got %d", calls)
	}
	if s.Len() != 6 {
		t.Fatalf("each alias class should reduce to one member, got %d", s.Len())
	}
}
