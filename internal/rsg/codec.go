package rsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// This file implements the canonical binary codec for frozen graphs —
// the wire format of the persistent analysis store (DESIGN.md §13).
// The encoding is name-based: selector, pvar and type names are written
// as strings (through a per-graph string table), never as Sym values,
// because Sym numbering depends on interning order and does not survive
// a process restart. The canonical digest is itself computed from names
// in canonical order (canon.go), so
//
//	DecodeFrozen(EncodeFrozen(g)).Digest() == g.Digest()
//
// bit for bit, in any process — the round-trip property the store's
// content addressing relies on (and that codec_test.go fuzzes).

// codecVersion is bumped on any incompatible format change; the store
// treats a version mismatch as a cache miss, never an error.
const codecVersion = 1

var errCodec = errors.New("rsg: malformed graph encoding")

// encBuf accumulates the encoding; strings are interned into a local
// table on first use and referenced by index afterwards, which keeps
// repeated selector names to one byte each.
type encBuf struct {
	out     []byte
	strs    []string
	strIdx  map[string]uint64
	scratch []Sym
}

func (e *encBuf) uvarint(v uint64) { e.out = binary.AppendUvarint(e.out, v) }

// str appends the string-table reference for s (0 is the empty string;
// table entries start at 1).
func (e *encBuf) str(s string) {
	if s == "" {
		e.uvarint(0)
		return
	}
	idx, ok := e.strIdx[s]
	if !ok {
		e.strs = append(e.strs, s)
		idx = uint64(len(e.strs))
		e.strIdx[s] = idx
	}
	e.uvarint(idx)
}

// syms appends a Sym set as a name list in lexicographic order (the
// canonical order shared with the signature encoding).
func (e *encBuf) syms(b bitset, t *symSpace) {
	e.scratch = b.collectSyms(e.scratch[:0])
	snap := t.load()
	snap.sortByRank(e.scratch)
	e.uvarint(uint64(len(e.scratch)))
	for _, y := range e.scratch {
		e.str(snap.names[y-1])
	}
}

// EncodeFrozen serializes a frozen graph into the compact canonical
// binary form. Panics if the graph is not frozen: encoding is meant for
// interned graphs whose digest is pinned, so the store can trust that
// the bytes written under a digest key really decode back to it.
func EncodeFrozen(g *Graph) []byte {
	if !g.frozen {
		panic("rsg: EncodeFrozen on unfrozen graph (Freeze or Intern first)")
	}
	e := &encBuf{
		out:    make([]byte, 0, 64+32*len(g.ids)),
		strIdx: make(map[string]uint64, 16),
	}
	// Body first; the string table is prepended afterwards so decoding
	// can read it up front.
	e.uvarint(uint64(len(g.ids)))
	selSnap := selTab.load()
	for i, id := range g.ids {
		n := g.nodes[i]
		e.uvarint(uint64(id))
		e.str(n.Type)
		var flags byte
		if n.Singleton {
			flags |= 1
		}
		if n.Shared {
			flags |= 2
		}
		e.out = append(e.out, flags)
		e.syms(n.ShSel.b, &selTab)
		e.syms(n.SelIn.b, &selTab)
		e.syms(n.SelOut.b, &selTab)
		e.syms(n.PosSelIn.b, &selTab)
		e.syms(n.PosSelOut.b, &selTab)
		pairs := n.Cycle.Sorted()
		e.uvarint(uint64(len(pairs)))
		for _, p := range pairs {
			e.str(p.Out)
			e.str(p.In)
		}
		e.syms(n.Touch.b, &pvarTab)
	}
	pvarSnap := pvarTab.load()
	e.uvarint(uint64(len(g.pl)))
	for _, pe := range g.pl {
		e.str(pvarSnap.names[pe.sym-1])
		e.uvarint(uint64(pe.id))
	}
	e.uvarint(uint64(len(g.outE)))
	for _, ed := range g.outE {
		e.uvarint(uint64(ed.a))
		e.str(selSnap.names[ed.sel-1])
		e.uvarint(uint64(ed.b))
	}
	e.uvarint(uint64(g.nextID))

	// Assemble: version, string table, body.
	hdr := make([]byte, 0, 16+len(e.out))
	hdr = append(hdr, codecVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(e.strs)))
	for _, s := range e.strs {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
		hdr = append(hdr, s...)
	}
	return append(hdr, e.out...)
}

// decBuf is the decoding cursor.
type decBuf struct {
	data []byte
	strs []string
}

func (d *decBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		return 0, errCodec
	}
	d.data = d.data[n:]
	return v, nil
}

func (d *decBuf) str() (string, error) {
	idx, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if idx == 0 {
		return "", nil
	}
	if idx > uint64(len(d.strs)) {
		return "", errCodec
	}
	return d.strs[idx-1], nil
}

func (d *decBuf) syms(t *symSpace) (bitset, error) {
	n, err := d.uvarint()
	if err != nil {
		return bitset{}, err
	}
	var b bitset
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return bitset{}, err
		}
		b.addSym(t.intern(s))
	}
	return b, nil
}

// maxDecodeNodes bounds a single decoded graph, so a corrupt length
// prefix cannot drive an allocation of arbitrary size.
const maxDecodeNodes = 1 << 20

// DecodeFrozen reconstructs a graph from EncodeFrozen bytes, interning
// every name into the process-local symbol tables, and returns it
// frozen. The decoded graph's digest is recomputed from scratch by the
// freeze, so a caller holding the expected digest can verify the bytes
// were not corrupted by comparing (the store does).
func DecodeFrozen(data []byte) (*Graph, error) {
	if len(data) < 1 || data[0] != codecVersion {
		return nil, fmt.Errorf("%w: bad version", errCodec)
	}
	d := &decBuf{data: data[1:]}
	nStrs, err := d.uvarint()
	if err != nil || nStrs > uint64(len(d.data)) {
		return nil, errCodec
	}
	d.strs = make([]string, nStrs)
	for i := range d.strs {
		ln, err := d.uvarint()
		if err != nil || ln > uint64(len(d.data)) {
			return nil, errCodec
		}
		d.strs[i] = string(d.data[:ln])
		d.data = d.data[ln:]
	}

	g := &Graph{}
	nNodes, err := d.uvarint()
	if err != nil || nNodes > maxDecodeNodes {
		return nil, errCodec
	}
	g.ids = make([]NodeID, 0, nNodes)
	g.nodes = make([]*Node, 0, nNodes)
	backing := make([]Node, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// Node IDs are encoded ascending from 1 (DESIGN.md §10); reject
		// anything else rather than build a graph posOf cannot search.
		if NodeID(id) <= g.nextID {
			return nil, errCodec
		}
		g.nextID = NodeID(id)
		n := &backing[i]
		n.ID = NodeID(id)
		if n.Type, err = d.str(); err != nil {
			return nil, err
		}
		if len(d.data) < 1 {
			return nil, errCodec
		}
		flags := d.data[0]
		d.data = d.data[1:]
		n.Singleton = flags&1 != 0
		n.Shared = flags&2 != 0
		if n.ShSel.b, err = d.syms(&selTab); err != nil {
			return nil, err
		}
		if n.SelIn.b, err = d.syms(&selTab); err != nil {
			return nil, err
		}
		if n.SelOut.b, err = d.syms(&selTab); err != nil {
			return nil, err
		}
		if n.PosSelIn.b, err = d.syms(&selTab); err != nil {
			return nil, err
		}
		if n.PosSelOut.b, err = d.syms(&selTab); err != nil {
			return nil, err
		}
		nPairs, err := d.uvarint()
		if err != nil || nPairs > uint64(len(d.data)) {
			return nil, errCodec
		}
		for j := uint64(0); j < nPairs; j++ {
			var p CyclePair
			if p.Out, err = d.str(); err != nil {
				return nil, err
			}
			if p.In, err = d.str(); err != nil {
				return nil, err
			}
			n.Cycle.Add(p)
		}
		if n.Touch.b, err = d.syms(&pvarTab); err != nil {
			return nil, err
		}
		g.ids = append(g.ids, n.ID)
		g.nodes = append(g.nodes, n)
	}

	nPl, err := d.uvarint()
	if err != nil || nPl > uint64(len(d.data)) {
		return nil, errCodec
	}
	g.pl = make([]plEntry, 0, nPl)
	for i := uint64(0); i < nPl; i++ {
		name, err := d.str()
		if err != nil || name == "" {
			return nil, errCodec
		}
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if g.posOf(NodeID(id)) < 0 {
			return nil, errCodec
		}
		g.pl = append(g.pl, plEntry{sym: pvarTab.intern(name), id: NodeID(id)})
	}
	nOut, err := d.uvarint()
	if err != nil || nOut > uint64(len(d.data)) {
		return nil, errCodec
	}
	g.outE = make([]edge, 0, nOut)
	for i := uint64(0); i < nOut; i++ {
		src, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		sel, err := d.str()
		if err != nil || sel == "" {
			return nil, errCodec
		}
		dst, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if g.posOf(NodeID(src)) < 0 || g.posOf(NodeID(dst)) < 0 {
			return nil, errCodec
		}
		g.outE = append(g.outE, edge{a: NodeID(src), sel: selTab.intern(sel), b: NodeID(dst)})
	}
	// g.nextID holds the largest node ID so far, which keeps posOf's
	// window valid for the PL and NL checks above. An encoded nextID
	// below it would let Clone + AddNode reuse an ID.
	nextID, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if NodeID(nextID) < g.nextID {
		return nil, errCodec
	}
	g.nextID = NodeID(nextID)

	// Interning may have assigned different ranks than the encoding
	// process had (rank order equals name order for any fixed symbol
	// set, but the decode-side tables can hold extra names); re-sort the
	// ordered slices under the local snapshots and rebuild the reverse
	// edge list, so the flat representation's invariants hold exactly.
	if pvarSnap := pvarTab.load(); pvarSnap != nil {
		sort.SliceStable(g.pl, func(i, j int) bool {
			return pvarSnap.rankOf(g.pl[i].sym) < pvarSnap.rankOf(g.pl[j].sym)
		})
	}
	if selSnap := selTab.load(); selSnap != nil {
		sort.SliceStable(g.outE, func(i, j int) bool { return compareOut(selSnap, g.outE[i], g.outE[j]) < 0 })
		g.inE = make([]edge, 0, len(g.outE))
		for _, ed := range g.outE {
			g.inE = append(g.inE, edge{a: ed.b, sel: ed.sel, b: ed.a})
		}
		sort.SliceStable(g.inE, func(i, j int) bool { return compareIn(selSnap, g.inE[i], g.inE[j]) < 0 })
	}
	return g.Freeze(), nil
}
