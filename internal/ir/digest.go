package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// This file derives stable content digests for programs and statements,
// the key material of the persistent analysis store (DESIGN.md §13).
// Digests are computed from names and structure only — never from
// interned Sym values, pointer identities or source line numbers — so
// the same program lowered in a different process (or re-parsed from a
// reformatted source) produces the same keys.

// StmtDigest is the 128-bit identity of one statement *in context*: the
// operation and operand names plus everything about the CFG neighbourhood
// that the engine's transfer of this statement depends on — the sorted
// predecessor list, the TOUCH-erasure pvar set of each incoming edge,
// loop membership and the statement's induction pvar set. Two statements
// with equal StmtDigests at the same analysis options compute identical
// in-states from identical predecessor out-states, which is exactly the
// property the edit-delta differ needs: an unchanged digest means the
// statement's fixpoint value is reusable as long as no changed statement
// can reach it.
type StmtDigest [16]byte

// appendStrings appends a length-prefixed string list.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSortedSet(b []byte, set map[string]struct{}) []byte {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendString(b, n)
	}
	return b
}

// transferIdentity renders the context-free part of a statement's
// digest pre-image: everything the statement's abstract transfer
// function depends on — op, operand names, OpFree's selector list, loop
// membership and the induction pvar set — and nothing about where the
// statement sits in the CFG. Two statements with equal transfer
// identities compute identical outputs from identical input graphs at
// the same analysis options, even across different programs; this is
// the key space of the persistent transfer memo. The caller must have
// run the induction pass first.
func (p *Program) transferIdentity(b []byte, id int) []byte {
	s := p.Stmts[id]
	b = binary.AppendUvarint(b, uint64(s.Op))
	b = appendString(b, s.X)
	b = appendString(b, s.Y)
	b = appendString(b, s.Sel)
	b = appendString(b, s.Type)
	// OpFree unlinks every selector of the freed type in declaration
	// order; the selector list is part of the transfer's meaning.
	if s.Op == OpFree {
		sels := p.Selectors[s.Type]
		b = binary.AppendUvarint(b, uint64(len(sels)))
		for _, sel := range sels {
			b = appendString(b, sel)
		}
	} else {
		b = binary.AppendUvarint(b, 0)
	}
	// Loop context: InLoop gates materialization behaviour, the
	// induction set feeds TOUCH at L3.
	if p.InLoop(id) {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendSortedSet(b, p.InductionFor(id))
}

// appendInFlow renders the CFG in-flow context that extends a
// statement's transfer identity to its contextual identity: the
// predecessor IDs and, per edge, the induction pvars of the loops the
// edge exits (the TOUCH-erasure set). A statement whose in-flow wiring
// changed must be re-analyzed even if its own operation did not. The
// caller must have run the induction pass first.
func (p *Program) appendInFlow(b []byte, id int) []byte {
	s := p.Stmts[id]
	b = binary.AppendUvarint(b, uint64(len(s.Preds)))
	for _, pred := range s.Preds {
		b = binary.AppendUvarint(b, uint64(pred))
		erase := make(map[string]struct{})
		for _, l := range p.LoopsExited(pred, id) {
			for pv := range l.Induction {
				erase[pv] = struct{}{}
			}
		}
		b = appendSortedSet(b, erase)
	}
	return b
}

// programDigests is a program's store key material (DESIGN.md §13).
type programDigests struct {
	prog      [16]byte
	stmts     []StmtDigest
	transfers []StmtDigest
}

// storeDigests computes every store digest of the program once, running
// the induction pass first, and returns the memoized result. It renders
// each statement's identity once, into the program digest's pre-image:
// the statement's transfer digest hashes the transfer identity, its
// contextual digest hashes that identity extended by the in-flow
// context, and the program digest hashes the whole buffer.
func (p *Program) storeDigests() *programDigests {
	p.digestOnce.Do(func() {
		p.AnnotateInduction()
		d := &p.digests
		d.stmts = make([]StmtDigest, len(p.Stmts))
		d.transfers = make([]StmtDigest, len(p.Stmts))
		b := make([]byte, 0, 4096)
		b = binary.AppendUvarint(b, uint64(len(p.Stmts)))
		b = binary.AppendUvarint(b, uint64(p.Entry))
		b = binary.AppendUvarint(b, uint64(p.Exit))
		for id, s := range p.Stmts {
			start := len(b)
			b = p.transferIdentity(b, id)
			sum := sha256.Sum256(b[start:])
			copy(d.transfers[id][:], sum[:16])
			b = p.appendInFlow(b, id)
			sum = sha256.Sum256(b[start:])
			copy(d.stmts[id][:], sum[:16])
			b = binary.AppendUvarint(b, uint64(len(s.Succs)))
			for _, succ := range s.Succs {
				b = binary.AppendUvarint(b, uint64(succ))
			}
		}
		b = p.appendDecls(b)
		sum := sha256.Sum256(b)
		copy(d.prog[:], sum[:16])
	})
	return &p.digests
}

// appendDecls renders the program-level tail of the program digest's
// pre-image: the declared pvar and selector tables and the loop forest
// with its induction sets.
func (p *Program) appendDecls(b []byte) []byte {
	// Declared pvars and their pointee types, sorted by name.
	pvars := make([]string, 0, len(p.PtrVars))
	for v := range p.PtrVars {
		pvars = append(pvars, v)
	}
	sort.Strings(pvars)
	b = binary.AppendUvarint(b, uint64(len(pvars)))
	for _, v := range pvars {
		b = appendString(b, v)
		b = appendString(b, p.PtrVars[v])
	}
	// Struct selector tables, sorted by type name, selectors in
	// declaration order (the order OpFree unlinks them).
	types := make([]string, 0, len(p.Selectors))
	for t := range p.Selectors {
		types = append(types, t)
	}
	sort.Strings(types)
	b = binary.AppendUvarint(b, uint64(len(types)))
	for _, t := range types {
		b = appendString(b, t)
		b = binary.AppendUvarint(b, uint64(len(p.Selectors[t])))
		for _, sel := range p.Selectors[t] {
			b = appendString(b, sel)
		}
	}
	// The loop forest with induction sets.
	b = binary.AppendUvarint(b, uint64(len(p.Loops)))
	for _, l := range p.Loops {
		b = binary.AppendUvarint(b, uint64(l.Header))
		b = binary.AppendUvarint(b, uint64(uint32(l.Parent+1)))
		body := make([]int, 0, len(l.Body))
		for id := range l.Body {
			body = append(body, id)
		}
		sort.Ints(body)
		b = binary.AppendUvarint(b, uint64(len(body)))
		for _, id := range body {
			b = binary.AppendUvarint(b, uint64(id))
		}
		b = appendSortedSet(b, l.Induction)
	}
	return b
}

// TransferDigests returns the per-statement context-free transfer
// digests (see transferIdentity), indexed by statement ID. The slice is
// computed once and shared: callers must not modify it.
func (p *Program) TransferDigests() []StmtDigest { return p.storeDigests().transfers }

// StmtDigests returns the per-statement contextual identity digests
// (see StmtDigest), indexed by statement ID. The slice is computed once
// and shared: callers must not modify it.
func (p *Program) StmtDigests() []StmtDigest { return p.storeDigests().stmts }

// Digest returns the 128-bit identity of the whole program: every
// statement's contextual identity plus the CFG edges, entry/exit, the
// declared pvar and selector tables, and the loop forest. Two programs
// with equal digests are indistinguishable to the analysis engine, so a
// stored fixpoint snapshot keyed on this digest can be replayed
// verbatim. Name and source lines are deliberately excluded:
// reformatting a source, or renaming the function, keeps the key.
func (p *Program) Digest() [16]byte { return p.storeDigests().prog }
