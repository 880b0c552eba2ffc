package rsg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomGraph constructs a random well-formed graph from a seeded
// source: a pool of types/selectors/pvars, random links and property
// marks. Deterministic per seed so failures replay.
func buildRandomGraph(rng *rand.Rand) *Graph {
	types := []string{"list", "tree", "blob"}
	sels := []string{"nxt", "prv", "left", "right", "dat"}
	pvars := []string{"p", "q", "r", "s", "root", "aux"}

	g := NewGraph()
	nNodes := 1 + rng.Intn(8)
	ids := make([]NodeID, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		n := NewNode(types[rng.Intn(len(types))])
		n.Singleton = rng.Intn(2) == 0
		n.Shared = rng.Intn(3) == 0
		if n.Shared {
			for k := 0; k < rng.Intn(3); k++ {
				n.ShSel.Add(sels[rng.Intn(len(sels))])
			}
		}
		for k := 0; k < rng.Intn(3); k++ {
			n.Cycle.Add(CyclePair{Out: sels[rng.Intn(len(sels))], In: sels[rng.Intn(len(sels))]})
		}
		for k := 0; k < rng.Intn(3); k++ {
			n.Touch.Add(pvars[rng.Intn(len(pvars))])
		}
		g.AddNode(n)
		ids = append(ids, n.ID)
	}
	nLinks := rng.Intn(3 * nNodes)
	for i := 0; i < nLinks; i++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		sel := sels[rng.Intn(len(sels))]
		g.AddLink(src, sel, dst)
		if rng.Intn(2) == 0 {
			g.Node(src).MarkDefiniteOut(sel)
			g.Node(dst).MarkDefiniteIn(sel)
		} else {
			g.Node(src).MarkPossibleOut(sel)
			g.Node(dst).MarkPossibleIn(sel)
		}
	}
	nPl := rng.Intn(len(pvars))
	for i := 0; i < nPl; i++ {
		g.SetPvar(pvars[rng.Intn(len(pvars))], ids[rng.Intn(len(ids))])
	}
	return g
}

// TestCodecRoundTripRandom is the property test the store's content
// addressing rests on: decode(encode(g)) must digest-equal g, for any
// graph. 500 seeded random graphs.
func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0DEC))
	for i := 0; i < 500; i++ {
		g := buildRandomGraph(rng).Freeze()
		data := EncodeFrozen(g)
		got, err := DecodeFrozen(data)
		if err != nil {
			t.Fatalf("graph %d: decode failed: %v", i, err)
		}
		if got.Digest() != g.Digest() {
			t.Fatalf("graph %d: digest mismatch after round trip:\nwant %x\ngot  %x\noriginal:\n%s\ndecoded:\n%s",
				i, g.Digest(), got.Digest(), g, got)
		}
		// The re-encoding must be byte-identical too: the codec is
		// canonical, not just digest-preserving.
		if !bytes.Equal(EncodeFrozen(got), data) {
			t.Fatalf("graph %d: re-encoding differs from original encoding", i)
		}
	}
}

// TestCodecRoundTripStructure checks full structural equality (not just
// digest) on a hand-built graph covering every encoded field.
func TestCodecRoundTripStructure(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(NewNode("list"))
	b := g.AddNode(NewNode("list"))
	c := g.AddNode(NewNode("tree"))
	a.Singleton = true
	b.Shared = true
	b.ShSel.Add("nxt")
	b.ShSel.Add("prv")
	b.Cycle.Add(CyclePair{Out: "nxt", In: "prv"})
	c.Touch.Add("p")
	c.Touch.Add("q")
	g.AddLink(a.ID, "nxt", b.ID)
	g.AddLink(b.ID, "nxt", c.ID)
	g.AddLink(b.ID, "prv", a.ID)
	a.MarkDefiniteOut("nxt")
	b.MarkDefiniteIn("nxt")
	b.MarkPossibleOut("nxt")
	c.MarkPossibleIn("nxt")
	g.SetPvar("p", a.ID)
	g.SetPvar("root", a.ID)
	frozen := g.Freeze()

	got, err := DecodeFrozen(EncodeFrozen(frozen))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Digest() != frozen.Digest() {
		t.Fatalf("digest mismatch")
	}
	if got.NumNodes() != 3 || got.NumLinks() != 3 {
		t.Fatalf("shape mismatch: %d nodes %d links", got.NumNodes(), got.NumLinks())
	}
	if got.PvarTarget("p") == nil || got.PvarTarget("p").ID != a.ID {
		t.Fatalf("pvar p lost")
	}
	if !got.HasLink(b.ID, "prv", a.ID) {
		t.Fatalf("link b-prv->a lost")
	}
	gb := got.Node(b.ID)
	if !gb.Shared || !gb.SharedBy("nxt") || !gb.SharedBy("prv") {
		t.Fatalf("share state lost: %v", gb)
	}
	if pairs := gb.Cycle.Sorted(); len(pairs) != 1 || pairs[0] != (CyclePair{Out: "nxt", In: "prv"}) {
		t.Fatalf("cycle pairs lost: %v", pairs)
	}
	gc := got.Node(c.ID)
	if tv := gc.Touch.Sorted(); len(tv) != 2 || tv[0] != "p" || tv[1] != "q" {
		t.Fatalf("touch lost: %v", tv)
	}
	// Sources (the inE index) must be rebuilt correctly.
	if srcs := got.Sources(a.ID, "prv"); len(srcs) != 1 || srcs[0] != b.ID {
		t.Fatalf("inE not rebuilt: sources(a, prv) = %v", srcs)
	}
}

// TestCodecEmptyGraph: the entry set's empty graph must round trip.
func TestCodecEmptyGraph(t *testing.T) {
	g := NewGraph().Freeze()
	got, err := DecodeFrozen(EncodeFrozen(g))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Digest() != g.Digest() || got.NumNodes() != 0 {
		t.Fatalf("empty graph round trip broken")
	}
}

// TestCodecRejectsCorruption: decoding must fail cleanly (error, not
// panic, not silent wrong graph) on truncated or bit-flipped input.
func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := buildRandomGraph(rng).Freeze()
	data := EncodeFrozen(g)

	for cut := 0; cut < len(data); cut++ {
		t.Run(fmt.Sprintf("truncate_%d", cut), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncated input: %v", r)
				}
			}()
			got, err := DecodeFrozen(data[:cut])
			// Truncation may still parse if the cut lands after all
			// fields; then the digest must still be right.
			if err == nil && got.Digest() != g.Digest() {
				t.Fatalf("truncated decode produced wrong graph silently")
			}
		})
	}
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt byte %d: %v", i, r)
				}
			}()
			// Error or a decodable-but-different graph are both fine
			// (the store checks the digest); a panic is not.
			_, _ = DecodeFrozen(corrupt)
		}()
	}
}

// TestCodecRejectsBadNodeIDs: node IDs outside [1, nextID] keep the
// digest (neither zero nor nextID is part of the canonical form), so the
// store's content-address check cannot catch them. A nextID below the
// largest node ID would make Clone + AddNode hand out a duplicate ID.
func TestCodecRejectsBadNodeIDs(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 3; i++ {
		g.AddNode(NewNode("t"))
	}
	g.SetPvar("p", 3)
	data := EncodeFrozen(g.Freeze())

	lowNext := append([]byte(nil), data...)
	lowNext[len(lowNext)-1] = 1 // nextID is the final uvarint: 3 -> 1
	if _, err := DecodeFrozen(lowNext); !errors.Is(err, errCodec) {
		t.Errorf("nextID 1 below node n3: err = %v, want errCodec", err)
	}

	// The body opens with the node count and the first node's ID, right
	// after the string table's last entry ("p").
	i := bytes.Index(data, []byte{'p', 3, 1})
	if i < 0 {
		t.Fatalf("node list not found in % x", data)
	}
	zeroID := append([]byte(nil), data...)
	zeroID[i+2] = 0
	if _, err := DecodeFrozen(zeroID); !errors.Is(err, errCodec) {
		t.Errorf("node ID 0: err = %v, want errCodec", err)
	}
}

// TestEncodeUnfrozenPanics pins the API contract.
func TestEncodeUnfrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("EncodeFrozen on unfrozen graph did not panic")
		}
	}()
	EncodeFrozen(NewGraph())
}
