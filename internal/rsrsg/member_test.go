package rsrsg

import (
	"math/rand"
	"testing"

	"repro/internal/rsg"
)

// oracle is the reference membership of one Set: its member graphs by
// digest.
type oracle map[rsg.Digest]*rsg.Graph

func (o oracle) clone() oracle {
	c := make(oracle, len(o))
	for dig, g := range o {
		c[dig] = g
	}
	return c
}

// checkAgainstOracle compares every observable of s with the oracle:
// length, strictly ascending iteration over exactly the oracle's
// members, the XOR set digest, and the node and link totals.
func checkAgainstOracle(t *testing.T, s *Set, want oracle, msg string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len %d, oracle has %d", msg, s.Len(), len(want))
	}
	var xor rsg.Digest
	nodes, links := 0, 0
	for dig, g := range want {
		xorDigest(&xor, dig)
		nodes += g.NumNodes()
		links += g.NumLinks()
	}
	var prev rsg.Digest
	i := 0
	s.ForEachEntry(func(g *rsg.Graph, dig rsg.Digest) {
		if i > 0 && !prev.Less(dig) {
			t.Fatalf("%s: entry %d (%s) does not follow %s", msg, i, dig, prev)
		}
		if _, ok := want[dig]; !ok {
			t.Fatalf("%s: member %s is not in the oracle", msg, dig)
		}
		if g.Digest() != dig {
			t.Fatalf("%s: member %s carries graph digest %s", msg, dig, g.Digest())
		}
		prev = dig
		i++
	})
	if s.Digest() != xor {
		t.Fatalf("%s: Digest %s, oracle XOR %s", msg, s.Digest(), xor)
	}
	if s.NumNodes() != nodes || s.NumLinks() != links {
		t.Fatalf("%s: NumNodes/NumLinks %d/%d, oracle %d/%d", msg, s.NumNodes(), s.NumLinks(), nodes, links)
	}
}

// TestSetMembershipMatchesOracle drives seeded random sequences of Add,
// Remove, Clone and Filter over several sets at once and checks each
// step against a map oracle: the return values of Add and Remove, and
// every observable checkAgainstOracle compares.
func TestSetMembershipMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var pool []*rsg.Graph
		for _, g := range randomGraphs(r, 30) {
			pool = append(pool, rsg.Intern(g))
		}
		// pick returns a random graph of pool that is a member of o
		// (member) or is not; nil when there is none.
		pick := func(o oracle, member bool) *rsg.Graph {
			var cands []*rsg.Graph
			for _, g := range pool {
				if _, in := o[g.Digest()]; in == member {
					cands = append(cands, g)
				}
			}
			if len(cands) == 0 {
				return nil
			}
			return cands[r.Intn(len(cands))]
		}

		sets := []*Set{New()}
		oracles := []oracle{{}}
		// mutate applies one random Add or Remove to set k.
		mutate := func(k, step int) {
			s, o := sets[k], oracles[k]
			switch op := r.Intn(4); op {
			case 0, 1: // add: a new graph, or a duplicate
				g := pick(o, op == 1)
				if g == nil {
					return
				}
				_, dup := o[g.Digest()]
				if got := s.Add(g); got == dup {
					t.Fatalf("seed %d step %d set %d: Add returned %v for a graph with member=%v", seed, step, k, got, dup)
				}
				o[g.Digest()] = g
			case 2: // remove a member
				g := pick(o, true)
				if g == nil {
					return
				}
				if !s.Remove(g.Digest()) {
					t.Fatalf("seed %d step %d set %d: Remove of a member returned false", seed, step, k)
				}
				delete(o, g.Digest())
			case 3: // remove an absent digest: a pool graph or an unknown one
				dig := rsg.Digest{byte(r.Intn(256)), byte(r.Intn(256)), 0xa5}
				if g := pick(o, false); g != nil && r.Intn(2) == 0 {
					dig = g.Digest()
				}
				if _, in := o[dig]; in {
					return
				}
				if s.Remove(dig) {
					t.Fatalf("seed %d step %d set %d: Remove of an absent digest returned true", seed, step, k)
				}
			}
		}

		// place stores a derived set in a new slot, or over a set other
		// than k once six are live, and returns its index.
		place := func(k int, s *Set, o oracle) int {
			if len(sets) < 6 {
				sets, oracles = append(sets, s), append(oracles, o)
				return len(sets) - 1
			}
			c := (k + 1 + r.Intn(len(sets)-1)) % len(sets)
			sets[c], oracles[c] = s, o
			return c
		}

		for step := 0; step < 300; step++ {
			k := r.Intn(len(sets))
			switch r.Intn(10) {
			case 0: // Clone, then mutate both copies
				c := place(k, sets[k].Clone(), oracles[k].clone())
				checkAgainstOracle(t, sets[c], oracles[c], "fresh clone")
				mutate(k, step)
				mutate(c, step)
			case 1: // Filter
				bit := byte(r.Intn(8))
				pred := func(g *rsg.Graph) bool { return g.Digest()[0]>>bit&1 == 0 }
				fo := oracle{}
				for dig, g := range oracles[k] {
					if pred(g) {
						fo[dig] = g
					}
				}
				c := place(k, sets[k].Filter(pred), fo)
				checkAgainstOracle(t, sets[c], oracles[c], "filtered set")
			default:
				mutate(k, step)
			}
			for i := range sets {
				checkAgainstOracle(t, sets[i], oracles[i], "after step")
			}
		}
	}
}
