package rsg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
)

// Signature returns a canonical textual form of the graph, independent
// of node IDs for deterministically generated graphs. It is used for
// fixed-point detection (has an RSRSG changed?) and for de-duplicating
// graphs inside an RSRSG.
//
// The ordering is computed by a breadth-first traversal from the pvars
// in sorted order, following selectors in sorted order; ties between
// sibling targets are broken by a local node descriptor (properties +
// SPATH), and as a last resort by node ID. The last-resort tie-break
// means two differently-generated isomorphic graphs can, in rare
// symmetric cases, produce different signatures; that costs a duplicate
// RSG in the set (a precision/space issue, never a soundness issue),
// and cannot prevent fixed-point detection because the transfer
// functions themselves are deterministic. A frozen graph records
// whether its order needed the last resort; when it did not, every
// isomorphic graph has its signature.
//
// Hot paths should prefer the fixed-size binary Digest over the full
// string: the two agree (Digest is a hash of exactly these bytes), and
// frozen graphs memoize the digest.
func Signature(g *Graph) string {
	cs := getCanonScratch()
	s := string(appendSignature(g, make([]byte, 0, 512), cs))
	putCanonScratch(cs)
	return s
}

// Digest is a fixed-size binary summary of a graph's Signature. Two
// graphs have equal digests iff they have equal signatures (up to a
// 2^-128 collision chance). Digest is a comparable value type, so it can
// key maps directly without the allocation and comparison cost of the
// multi-kilobyte signature strings it replaces.
type Digest [16]byte

// String renders the digest in hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Compare returns -1, 0 or +1 as d sorts before, equal to or after o in
// lexicographic byte order, the order RSRSG entries are kept in; it
// suits slices.BinarySearchFunc and SortFunc.
func (d Digest) Compare(o Digest) int { return bytes.Compare(d[:], o[:]) }

// computeDigest hashes the signature bytes without materializing the
// string, accumulating them in pooled scratch.
func computeDigest(g *Graph) Digest {
	cs := getCanonScratch()
	d := digestIn(g, cs)
	putCanonScratch(cs)
	return d
}

// digestIn is computeDigest in the caller's scratch. It leaves g's
// SPATH sets in cs.spaths, for a freeze to copy out.
func digestIn(g *Graph, cs *canonScratch) Digest {
	cs.sig = appendSignature(g, cs.sig[:0], cs)
	sum := sha256.Sum256(cs.sig)
	var d Digest
	copy(d[:], sum[:16])
	return d
}

// appendSignature appends the canonical encoding of g to buf, working
// entirely in position-indexed scratch (positions into g.ids), with
// byte appends instead of fmt so the dedup and equality paths of the
// analysis do not allocate per emitted line.
func appendSignature(g *Graph, buf []byte, cs *canonScratch) []byte {
	n := len(g.ids)
	canonicalOrder(g, cs)
	cs.idx = grow(cs.idx, n)
	for ci, pos := range cs.order {
		cs.idx[pos] = int32(ci)
	}

	psnap := pvarTab.load()
	for _, e := range g.pl {
		buf = append(buf, 'P', ' ')
		buf = append(buf, psnap.names[e.sym-1]...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(cs.idx[cs.index.pos[e.id]]), 10)
		buf = append(buf, '\n')
	}
	for ci, pos := range cs.order {
		buf = append(buf, 'N', ' ')
		buf = strconv.AppendInt(buf, int64(ci), 10)
		buf = append(buf, ' ')
		buf = append(buf, cs.descriptor(pos)...)
		buf = append(buf, '\n')
	}
	// Emit edges grouped by canonical source index and selector; only
	// the destination indices of each small group need sorting. The out
	// run of a node is already (selector-name, dst) ordered.
	ssnap := selTab.load()
	for _, pos := range cs.order {
		srcIdx := int64(cs.idx[pos])
		run := cs.index.outRun(g, pos)
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.dsts = cs.dsts[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.dsts = append(cs.dsts, int(cs.idx[cs.index.pos[run[i].b]]))
			}
			sort.Ints(cs.dsts)
			name := ssnap.names[sel-1]
			for _, d := range cs.dsts {
				buf = append(buf, 'L', ' ')
				buf = strconv.AppendInt(buf, srcIdx, 10)
				buf = append(buf, ' ')
				buf = append(buf, name...)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(d), 10)
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

// appendNodeDescriptor appends an encoding of every intrinsic property
// of a node (ID excluded) for use in signatures and tie-breaking.
func appendNodeDescriptor(buf []byte, n *Node) []byte {
	buf = append(buf, n.Type...)
	if n.Singleton {
		buf = append(buf, '|', '1', '|')
	} else {
		buf = append(buf, '|', '*', '|')
	}
	if n.Shared {
		buf = append(buf, 'S', '|')
	} else {
		buf = append(buf, 's', '|')
	}
	buf = n.ShSel.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelIn.appendTo(buf)
	buf = append(buf, '|')
	buf = n.SelOut.appendTo(buf)
	buf = append(buf, '|')
	buf = n.PosSelIn.appendTo(buf)
	buf = append(buf, '|')
	buf = n.PosSelOut.appendTo(buf)
	buf = append(buf, '|')
	buf = n.Cycle.appendTo(buf)
	buf = append(buf, '|')
	buf = n.Touch.appendTo(buf)
	return buf
}

// canonicalOrder fills cs.order with the node positions in BFS order
// from the sorted pvars, with deterministic tie-breaking; unreachable
// nodes follow in descriptor order. cs.index, cs.spaths and the
// descriptor arena are left holding g's position index and the
// per-position SPATH sets and tie-break keys, and cs.tied whether a
// tie-break fell back to positions.
func canonicalOrder(g *Graph, cs *canonScratch) {
	n := len(g.ids)
	cs.tied = false
	cs.index.build(g)
	cs.spaths = grow(cs.spaths, n)
	cs.paths, cs.counts = g.spathsByPos(cs.spaths, cs.paths, cs.counts, &cs.index)
	// One arena holds every node's tie-break key, its descriptor, '@'
	// and its SPATH; keyOff and descEnd index it by position.
	cs.arena = cs.arena[:0]
	cs.keyOff = grow(cs.keyOff, n+1)
	cs.descEnd = grow(cs.descEnd, n)
	for i := range g.ids {
		cs.keyOff[i] = int32(len(cs.arena))
		cs.arena = appendNodeDescriptor(cs.arena, g.nodes[i])
		cs.descEnd[i] = int32(len(cs.arena))
		cs.arena = append(cs.arena, '@')
		cs.arena = cs.spaths[i].appendTo(cs.arena)
	}
	cs.keyOff[n] = int32(len(cs.arena))

	cs.order = cs.order[:0]
	cs.seen = growBool(cs.seen, n)
	push := func(pos int) {
		if !cs.seen[pos] {
			cs.seen[pos] = true
			cs.order = append(cs.order, pos)
		}
	}
	cs.queue = cs.queue[:0]
	for _, e := range g.pl {
		t := int(cs.index.pos[e.id])
		if !cs.seen[t] {
			push(t)
			cs.queue = append(cs.queue, t)
		}
	}
	for qi := 0; qi < len(cs.queue); qi++ {
		pos := cs.queue[qi]
		run := cs.index.outRun(g, pos)
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.targets = cs.targets[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.targets = append(cs.targets, int(cs.index.pos[run[i].b]))
			}
			slices.SortFunc(cs.targets, func(a, b int) int {
				if cs.seen[a] != cs.seen[b] {
					if cs.seen[a] {
						return -1 // already-ordered nodes first, keeping BFS stable
					}
					return 1
				}
				return cs.compareKeys(a, b)
			})
			for _, t := range cs.targets {
				if !cs.seen[t] {
					push(t)
					cs.queue = append(cs.queue, t)
				}
			}
		}
	}
	// Unreachable leftovers (normally garbage collected before this).
	restStart := len(cs.order)
	for pos := range g.ids {
		if !cs.seen[pos] {
			cs.order = append(cs.order, pos)
		}
	}
	slices.SortFunc(cs.order[restStart:], cs.compareKeys)
}
