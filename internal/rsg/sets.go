// Package rsg implements Reference Shape Graphs (RSGs), the core
// abstraction of Corbera, Asenjo and Zapata, "Progressive Shape Analysis
// for Real C Codes" (ICPP 2001).
//
// An RSG is a finite graph that over-approximates a set of concrete
// memory configurations. Nodes summarize memory locations that share a
// set of properties (type, structure, reference pattern, share
// information, cycle links, simple paths and touch sets); edges record
// pointer-variable references (PL) and selector links between nodes (NL).
//
// The package provides the graph operations the paper defines:
// COMPRESS (node summarization, Sect. 3.1), DIVIDE (Sect. 4.1),
// PRUNE (Sect. 4.2), JOIN (Sect. 4.3) and the materialization step used
// by the abstract semantics (Fig. 1(d)).
package rsg

import (
	"math/bits"
	"sort"
	"strings"
)

// bitset is the shared core of the symbol sets: Syms 1..64 live in a
// 64-bit mask, larger Syms spill into a sorted slice. Mutations of the
// spill are copy-on-write, so a plain struct copy of a set (Node.Clone
// shares the slices) can never be corrupted by later mutations of
// either copy; the mask is a value and copies trivially.
type bitset struct {
	mask  uint64
	spill []Sym // sorted ascending; Syms > 64 only
}

func (s bitset) hasSym(y Sym) bool {
	if y == 0 {
		return false
	}
	if y <= 64 {
		return s.mask&(1<<(y-1)) != 0
	}
	i := sort.Search(len(s.spill), func(i int) bool { return s.spill[i] >= y })
	return i < len(s.spill) && s.spill[i] == y
}

func (s *bitset) addSym(y Sym) {
	if y == 0 {
		return
	}
	if y <= 64 {
		s.mask |= 1 << (y - 1)
		return
	}
	i := sort.Search(len(s.spill), func(i int) bool { return s.spill[i] >= y })
	if i < len(s.spill) && s.spill[i] == y {
		return
	}
	cacheStats.maskSpills.Add(1)
	next := make([]Sym, len(s.spill)+1)
	copy(next, s.spill[:i])
	next[i] = y
	copy(next[i+1:], s.spill[i:])
	s.spill = next
}

func (s *bitset) removeSym(y Sym) {
	if y == 0 {
		return
	}
	if y <= 64 {
		s.mask &^= 1 << (y - 1)
		return
	}
	i := sort.Search(len(s.spill), func(i int) bool { return s.spill[i] >= y })
	if i >= len(s.spill) || s.spill[i] != y {
		return
	}
	next := make([]Sym, 0, len(s.spill)-1)
	next = append(next, s.spill[:i]...)
	next = append(next, s.spill[i+1:]...)
	if len(next) == 0 {
		next = nil
	}
	s.spill = next
}

func (s bitset) size() int { return bits.OnesCount64(s.mask) + len(s.spill) }

func (s bitset) empty() bool { return s.mask == 0 && len(s.spill) == 0 }

func (s bitset) equal(o bitset) bool {
	if s.mask != o.mask || len(s.spill) != len(o.spill) {
		return false
	}
	for i, y := range s.spill {
		if o.spill[i] != y {
			return false
		}
	}
	return true
}

// eachSym calls f for every member in ascending Sym order.
func (s bitset) eachSym(f func(Sym)) {
	m := s.mask
	for m != 0 {
		b := bits.TrailingZeros64(m)
		f(Sym(b + 1))
		m &= m - 1
	}
	for _, y := range s.spill {
		f(y)
	}
}

func (s bitset) union(o bitset) bitset {
	out := bitset{mask: s.mask | o.mask, spill: mergeSpills(s.spill, o.spill)}
	return out
}

func (s bitset) intersect(o bitset) bitset {
	out := bitset{mask: s.mask & o.mask}
	if len(s.spill) > 0 && len(o.spill) > 0 {
		for _, y := range s.spill {
			if o.hasSym(y) {
				out.spill = append(out.spill, y)
			}
		}
	}
	return out
}

func (s bitset) minus(o bitset) bitset {
	out := bitset{mask: s.mask &^ o.mask}
	for _, y := range s.spill {
		if !o.hasSym(y) {
			out.spill = append(out.spill, y)
		}
	}
	return out
}

func (s bitset) intersects(o bitset) bool {
	if s.mask&o.mask != 0 {
		return true
	}
	for _, y := range s.spill {
		if o.hasSym(y) {
			return true
		}
	}
	return false
}

func mergeSpills(a, b []Sym) []Sym {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]Sym, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// collectSyms appends the members to dst in ascending Sym order.
func (s bitset) collectSyms(dst []Sym) []Sym {
	m := s.mask
	for m != 0 {
		b := bits.TrailingZeros64(m)
		dst = append(dst, Sym(b+1))
		m &= m - 1
	}
	return append(dst, s.spill...)
}

// sortedNames returns the member names in lexicographic order.
func (s bitset) sortedNames(t *symSpace) []string {
	n := s.size()
	if n == 0 {
		return nil
	}
	var tmp [16]Sym
	syms := s.collectSyms(tmp[:0])
	snap := t.load()
	snap.sortByRank(syms)
	out := make([]string, n)
	for i, y := range syms {
		out[i] = snap.names[y-1]
	}
	return out
}

// appendNames appends "{a,b,c}" with names in lexicographic order — the
// canonical signature element format, byte-identical to the map-based
// encoding this replaced.
func (s bitset) appendNames(t *symSpace, buf []byte) []byte {
	buf = append(buf, '{')
	if !s.empty() {
		var tmp [16]Sym
		syms := s.collectSyms(tmp[:0])
		snap := t.load()
		snap.sortByRank(syms)
		for i, y := range syms {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, snap.names[y-1]...)
		}
	}
	return append(buf, '}')
}

// SelSet is a set of selector names (struct pointer fields), stored as
// a bitmask over interned selector Syms with a rare spill slice for
// programs with more than 64 distinct selectors.
type SelSet struct {
	b bitset
}

// NewSelSet builds a selector set from the given names.
func NewSelSet(sels ...string) SelSet {
	var s SelSet
	for _, sel := range sels {
		s.Add(sel)
	}
	return s
}

// Has reports whether sel is in the set.
func (s SelSet) Has(sel string) bool { return s.b.hasSym(selTab.lookup(sel)) }

// HasSym reports whether the interned selector y is in the set.
func (s SelSet) HasSym(y Sym) bool { return s.b.hasSym(y) }

// Add inserts sel into the set.
func (s *SelSet) Add(sel string) { s.b.addSym(selTab.intern(sel)) }

// AddSym inserts the interned selector y into the set.
func (s *SelSet) AddSym(y Sym) { s.b.addSym(y) }

// Remove deletes sel from the set.
func (s *SelSet) Remove(sel string) { s.b.removeSym(selTab.lookup(sel)) }

// RemoveSym deletes the interned selector y from the set.
func (s *SelSet) RemoveSym(y Sym) { s.b.removeSym(y) }

// Len returns the number of selectors in the set.
func (s SelSet) Len() int { return s.b.size() }

// Empty reports whether the set has no members.
func (s SelSet) Empty() bool { return s.b.empty() }

// Clone returns an independent copy of the set.
func (s SelSet) Clone() SelSet { return s } // mutations are copy-on-write

// Equal reports whether two sets hold the same selectors.
func (s SelSet) Equal(o SelSet) bool { return s.b.equal(o.b) }

// Union returns a new set with all elements of s and o.
func (s SelSet) Union(o SelSet) SelSet { return SelSet{s.b.union(o.b)} }

// Intersect returns a new set with the elements common to s and o.
func (s SelSet) Intersect(o SelSet) SelSet { return SelSet{s.b.intersect(o.b)} }

// Minus returns a new set with the elements of s not in o.
func (s SelSet) Minus(o SelSet) SelSet { return SelSet{s.b.minus(o.b)} }

// EachSym calls f for every member in ascending Sym order.
func (s SelSet) EachSym(f func(Sym)) { s.b.eachSym(f) }

// Sorted returns the selectors in lexicographic order.
func (s SelSet) Sorted() []string { return s.b.sortedNames(&selTab) }

// String renders the set as "{a,b,c}" with sorted elements.
func (s SelSet) String() string { return string(s.appendTo(make([]byte, 0, 16))) }

// appendTo appends the String form to buf without intermediate strings;
// used by the signature/digest encoder.
func (s SelSet) appendTo(buf []byte) []byte { return s.b.appendNames(&selTab, buf) }

// PvarSet is a set of pointer-variable names (bitmask over interned
// pvar Syms). It is used for TOUCH sets and for alias groups.
type PvarSet struct {
	b bitset
}

// NewPvarSet builds a pvar set from the given names.
func NewPvarSet(pvars ...string) PvarSet {
	var s PvarSet
	for _, p := range pvars {
		s.Add(p)
	}
	return s
}

// Has reports whether p is in the set.
func (s PvarSet) Has(p string) bool { return s.b.hasSym(pvarTab.lookup(p)) }

// HasSym reports whether the interned pvar y is in the set.
func (s PvarSet) HasSym(y Sym) bool { return s.b.hasSym(y) }

// Add inserts p into the set.
func (s *PvarSet) Add(p string) { s.b.addSym(pvarTab.intern(p)) }

// AddSym inserts the interned pvar y into the set.
func (s *PvarSet) AddSym(y Sym) { s.b.addSym(y) }

// Len returns the number of pvars in the set.
func (s PvarSet) Len() int { return s.b.size() }

// Empty reports whether the set has no members.
func (s PvarSet) Empty() bool { return s.b.empty() }

// Equal reports whether two sets hold the same pvars.
func (s PvarSet) Equal(o PvarSet) bool { return s.b.equal(o.b) }

// Union returns a new set with all elements of s and o.
func (s PvarSet) Union(o PvarSet) PvarSet { return PvarSet{s.b.union(o.b)} }

// Minus returns a new set with the elements of s not in o.
func (s PvarSet) Minus(o PvarSet) PvarSet { return PvarSet{s.b.minus(o.b)} }

// Intersects reports whether the two sets share a member.
func (s PvarSet) Intersects(o PvarSet) bool { return s.b.intersects(o.b) }

// Sorted returns the pvars in lexicographic order.
func (s PvarSet) Sorted() []string { return s.b.sortedNames(&pvarTab) }

// String renders the set as "{p,q}" with sorted elements.
func (s PvarSet) String() string { return string(s.appendTo(make([]byte, 0, 16))) }

// appendTo appends the String form to buf without intermediate strings.
func (s PvarSet) appendTo(buf []byte) []byte { return s.b.appendNames(&pvarTab, buf) }

// CyclePair is one CYCLELINKS entry <Out, In>: every location represented
// by the node points via selector Out to a location that points back to it
// via selector In (a definite simple cycle, Sect. 3).
type CyclePair struct {
	Out string // the forward selector (sel_i in the paper)
	In  string // the returning selector (sel_j in the paper)
}

// String renders the pair as "<out,in>".
func (p CyclePair) String() string { return "<" + p.Out + "," + p.In + ">" }

func cyclePairLess(a, b CyclePair) bool {
	if a.Out != b.Out {
		return a.Out < b.Out
	}
	return a.In < b.In
}

// CycleSet is a set of CYCLELINKS pairs, stored as a sorted small slice
// (cycle sets are nearly always empty or a single pair). Mutations are
// copy-on-write, so struct copies share the slice safely.
type CycleSet struct {
	pairs []CyclePair // sorted by (Out, In)
}

// NewCycleSet builds a cycle-link set from the given pairs.
func NewCycleSet(pairs ...CyclePair) CycleSet {
	var s CycleSet
	for _, p := range pairs {
		s.Add(p)
	}
	return s
}

func (s CycleSet) search(p CyclePair) int {
	return sort.Search(len(s.pairs), func(i int) bool { return !cyclePairLess(s.pairs[i], p) })
}

// Has reports whether pair is in the set.
func (s CycleSet) Has(p CyclePair) bool {
	i := s.search(p)
	return i < len(s.pairs) && s.pairs[i] == p
}

// Add inserts pair into the set.
func (s *CycleSet) Add(p CyclePair) {
	i := s.search(p)
	if i < len(s.pairs) && s.pairs[i] == p {
		return
	}
	next := make([]CyclePair, len(s.pairs)+1)
	copy(next, s.pairs[:i])
	next[i] = p
	copy(next[i+1:], s.pairs[i:])
	s.pairs = next
}

// Remove deletes pair from the set.
func (s *CycleSet) Remove(p CyclePair) {
	i := s.search(p)
	if i >= len(s.pairs) || s.pairs[i] != p {
		return
	}
	if len(s.pairs) == 1 {
		s.pairs = nil
		return
	}
	next := make([]CyclePair, 0, len(s.pairs)-1)
	next = append(next, s.pairs[:i]...)
	next = append(next, s.pairs[i+1:]...)
	s.pairs = next
}

// Len returns the number of pairs in the set.
func (s CycleSet) Len() int { return len(s.pairs) }

// Empty reports whether the set has no members.
func (s CycleSet) Empty() bool { return len(s.pairs) == 0 }

// Clone returns an independent copy of the set.
func (s CycleSet) Clone() CycleSet { return s } // mutations are copy-on-write

// Sorted returns the pairs ordered by (Out, In). The returned slice is
// the set's backing store; callers must not modify it (mutating the set
// while iterating is safe — mutators copy on write).
func (s CycleSet) Sorted() []CyclePair { return s.pairs }

// String renders the set with sorted elements.
func (s CycleSet) String() string {
	parts := make([]string, 0, len(s.pairs))
	for _, p := range s.pairs {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// appendTo appends the String form to buf without intermediate strings.
func (s CycleSet) appendTo(buf []byte) []byte {
	buf = append(buf, '{')
	for i, p := range s.pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '<')
		buf = append(buf, p.Out...)
		buf = append(buf, ',')
		buf = append(buf, p.In...)
		buf = append(buf, '>')
	}
	return append(buf, '}')
}

// SPath is one simple path <pvar, sel> (Sect. 3): an access path of
// length at most one from a pointer variable to the node. Sel == "" is
// the zero-length path (the pvar points directly at the node).
type SPath struct {
	Pvar string
	Sel  string // "" for the zero-length path
}

// Len returns the path length as the paper defines it: 0 when Sel is
// empty, 1 otherwise.
func (p SPath) Len() int {
	if p.Sel == "" {
		return 0
	}
	return 1
}

// String renders the path as "<pvar,sel>" or "<pvar,.>" for length 0.
func (p SPath) String() string {
	if p.Sel == "" {
		return "<" + p.Pvar + ",.>"
	}
	return "<" + p.Pvar + "," + p.Sel + ">"
}

func spathLess(a, b SPath) bool {
	if a.Pvar != b.Pvar {
		return a.Pvar < b.Pvar
	}
	return a.Sel < b.Sel
}

// SPathSet is a set of simple paths, stored as a sorted small slice.
// Mutations are copy-on-write.
type SPathSet struct {
	paths []SPath // sorted by (Pvar, Sel)
}

// NewSPathSet builds a simple-path set from the given paths.
func NewSPathSet(paths ...SPath) SPathSet {
	var s SPathSet
	for _, p := range paths {
		s.Add(p)
	}
	return s
}

func (s SPathSet) search(p SPath) int {
	return sort.Search(len(s.paths), func(i int) bool { return !spathLess(s.paths[i], p) })
}

// Has reports whether path is in the set.
func (s SPathSet) Has(p SPath) bool {
	i := s.search(p)
	return i < len(s.paths) && s.paths[i] == p
}

// Add inserts path into the set.
func (s *SPathSet) Add(p SPath) {
	i := s.search(p)
	if i < len(s.paths) && s.paths[i] == p {
		return
	}
	next := make([]SPath, len(s.paths)+1)
	copy(next, s.paths[:i])
	next[i] = p
	copy(next[i+1:], s.paths[i:])
	s.paths = next
}

// Len returns the number of paths in the set.
func (s SPathSet) Len() int { return len(s.paths) }

// ZeroLen returns the subset of zero-length paths.
func (s SPathSet) ZeroLen() SPathSet {
	var out SPathSet
	for _, p := range s.paths {
		if p.Len() == 0 {
			out.paths = append(out.paths, p)
		}
	}
	sort.Slice(out.paths, func(i, j int) bool { return spathLess(out.paths[i], out.paths[j]) })
	return out
}

// OneLen returns the subset of one-length paths.
func (s SPathSet) OneLen() SPathSet {
	var out SPathSet
	for _, p := range s.paths {
		if p.Len() == 1 {
			out.paths = append(out.paths, p)
		}
	}
	return out
}

// Equal reports whether two sets hold the same paths.
func (s SPathSet) Equal(o SPathSet) bool {
	if len(s.paths) != len(o.paths) {
		return false
	}
	for i, p := range s.paths {
		if o.paths[i] != p {
			return false
		}
	}
	return true
}

// Intersects reports whether the two sets have a common path.
func (s SPathSet) Intersects(o SPathSet) bool {
	i, j := 0, 0
	for i < len(s.paths) && j < len(o.paths) {
		switch {
		case s.paths[i] == o.paths[j]:
			return true
		case spathLess(s.paths[i], o.paths[j]):
			i++
		default:
			j++
		}
	}
	return false
}

// zeroLenEqual reports ZeroLen().Equal(o.ZeroLen()) without building
// the subsets — the hot C_SPATH0 comparison.
func (s SPathSet) zeroLenEqual(o SPathSet) bool {
	i, j := 0, 0
	for {
		for i < len(s.paths) && s.paths[i].Sel != "" {
			i++
		}
		for j < len(o.paths) && o.paths[j].Sel != "" {
			j++
		}
		si, sj := i < len(s.paths), j < len(o.paths)
		if !si || !sj {
			return si == sj
		}
		if s.paths[i] != o.paths[j] {
			return false
		}
		i++
		j++
	}
}

// oneLenEmpty reports whether the set has no one-length path.
func (s SPathSet) oneLenEmpty() bool {
	for _, p := range s.paths {
		if p.Sel != "" {
			return false
		}
	}
	return true
}

// oneLenIntersects reports whether the one-length subsets share a path.
func (s SPathSet) oneLenIntersects(o SPathSet) bool {
	i, j := 0, 0
	for {
		for i < len(s.paths) && s.paths[i].Sel == "" {
			i++
		}
		for j < len(o.paths) && o.paths[j].Sel == "" {
			j++
		}
		if i >= len(s.paths) || j >= len(o.paths) {
			return false
		}
		switch {
		case s.paths[i] == o.paths[j]:
			return true
		case spathLess(s.paths[i], o.paths[j]):
			i++
		default:
			j++
		}
	}
}

// String renders the set with sorted elements.
func (s SPathSet) String() string {
	parts := make([]string, 0, len(s.paths))
	for _, p := range s.paths {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// appendTo appends the String form to buf without intermediate strings.
func (s SPathSet) appendTo(buf []byte) []byte {
	buf = append(buf, '{')
	for i, p := range s.paths {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '<')
		buf = append(buf, p.Pvar...)
		buf = append(buf, ',')
		if p.Sel == "" {
			buf = append(buf, '.')
		} else {
			buf = append(buf, p.Sel...)
		}
		buf = append(buf, '>')
	}
	return append(buf, '}')
}
