package rsg

import (
	"crypto/sha256"
	"encoding/hex"
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
// functions themselves are deterministic.
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

// Less orders digests lexicographically; used to keep RSRSG entries in
// a deterministic order.
func (d Digest) Less(o Digest) bool {
	for i := range d {
		if d[i] != o[i] {
			return d[i] < o[i]
		}
	}
	return false
}

// computeDigest hashes the signature bytes without materializing the
// string, accumulating them in pooled scratch.
func computeDigest(g *Graph) Digest {
	cs := getCanonScratch()
	cs.sig = appendSignature(g, cs.sig[:0], cs)
	sum := sha256.Sum256(cs.sig)
	putCanonScratch(cs)
	var d Digest
	copy(d[:], sum[:16])
	return d
}

// Hash returns the hex form of the graph's digest (memoized on frozen
// graphs); kept for textual call sites like trace output.
func Hash(g *Graph) string {
	d := g.Digest()
	return d.String()
}

// appendSignature appends the canonical encoding of g to buf, working
// entirely in position-indexed scratch (positions into g.ids), with
// byte appends instead of fmt so the dedup and equality paths of the
// analysis do not allocate per emitted line.
func appendSignature(g *Graph, buf []byte, cs *canonScratch) []byte {
	n := len(g.ids)
	canonicalOrder(g, cs)
	cs.idx = growInt32(cs.idx, n)
	for ci, pos := range cs.order {
		cs.idx[pos] = int32(ci)
	}

	psnap := pvarTab.load()
	for _, e := range g.pl {
		buf = append(buf, 'P', ' ')
		buf = append(buf, psnap.names[e.sym-1]...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(cs.idx[g.posOf(e.id)]), 10)
		buf = append(buf, '\n')
	}
	for ci, pos := range cs.order {
		buf = append(buf, 'N', ' ')
		buf = strconv.AppendInt(buf, int64(ci), 10)
		buf = append(buf, ' ')
		buf = appendNodeDescriptor(buf, g.nodes[pos])
		buf = append(buf, '\n')
	}
	// Emit edges grouped by canonical source index and selector; only
	// the destination indices of each small group need sorting. The out
	// run of a node is already (selector-name, dst) ordered.
	ssnap := selTab.load()
	for _, pos := range cs.order {
		srcIdx := int64(cs.idx[pos])
		run := g.outRun(g.ids[pos])
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.dsts = cs.dsts[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.dsts = append(cs.dsts, int(cs.idx[g.posOf(run[i].b)]))
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
// nodes follow in descriptor order. cs.spaths and cs.local are left
// holding the per-position SPATH sets and tie-break descriptors.
func canonicalOrder(g *Graph, cs *canonScratch) {
	n := len(g.ids)
	cs.spaths = growSPathSets(cs.spaths, n)
	g.spathsByPos(cs.spaths)
	cs.local = growStrings(cs.local, n)
	for i := range g.ids {
		cs.buf = appendNodeDescriptor(cs.buf[:0], g.nodes[i])
		cs.buf = append(cs.buf, '@')
		cs.buf = cs.spaths[i].appendTo(cs.buf)
		cs.local[i] = string(cs.buf)
	}

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
		t := g.posOf(e.id)
		if !cs.seen[t] {
			push(t)
			cs.queue = append(cs.queue, t)
		}
	}
	for qi := 0; qi < len(cs.queue); qi++ {
		pos := cs.queue[qi]
		run := g.outRun(g.ids[pos])
		for i := 0; i < len(run); {
			sel := run[i].sel
			cs.targets = cs.targets[:0]
			for ; i < len(run) && run[i].sel == sel; i++ {
				cs.targets = append(cs.targets, g.posOf(run[i].b))
			}
			sort.Slice(cs.targets, func(i, j int) bool {
				a, b := cs.targets[i], cs.targets[j]
				if cs.seen[a] != cs.seen[b] {
					return cs.seen[a] // already-ordered nodes first, keeping BFS stable
				}
				if cs.local[a] != cs.local[b] {
					return cs.local[a] < cs.local[b]
				}
				return a < b
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
	rest := cs.order[restStart:]
	sort.Slice(rest, func(i, j int) bool {
		if cs.local[rest[i]] != cs.local[rest[j]] {
			return cs.local[rest[i]] < cs.local[rest[j]]
		}
		return rest[i] < rest[j]
	})
}
