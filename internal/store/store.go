// Package store is the persistent content-addressed analysis store
// (DESIGN.md §13): a single-file append-only log, no external
// dependencies, that outlives the process and backs two caches of the
// analysis engine —
//
//   - the transfer memo: (statement-transfer key, input-RSG digest) →
//     output-RSG digest list, with the graphs themselves stored once in
//     a content-addressed graph log (rsg.EncodeFrozen bytes keyed by
//     the 16-byte canonical digest), and
//   - per-statement fixpoint snapshots of whole runs, keyed by
//     (program digest, options fingerprint), which warm-start a repeat
//     run and seed edit-delta re-analysis of a changed program.
//
// Durability model: every record carries a CRC; Open scans the log and
// truncates at the first torn or corrupt record, so a crash mid-append
// costs at most the tail. Any read failure — missing record, version
// skew, corrupt graph bytes, digest mismatch — degrades to a cache
// miss, never an error and never a wrong value: graph payloads are
// re-digested on decode and rejected if they do not match their key.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/rsg"
)

// magic identifies the file format; the trailing digit is the format
// version and is bumped on incompatible layout changes.
var magic = []byte("RSGSTORE1\n")

// Record kinds.
const (
	kindGraph    = 'G' // digest[16] + EncodeFrozen bytes
	kindMemo     = 'M' // stmtKey[16] + inDigest[16] + uvarint n + n×digest[16]
	kindSnapshot = 'S' // encoded Snapshot
)

// maxRecordLen bounds a single record so a corrupt length prefix cannot
// drive an unbounded allocation during the recovery scan.
const maxRecordLen = 64 << 20

// graphCacheCap bounds the decoded-graph cache. Eviction is arbitrary
// (map iteration order); the cache is a decode-avoidance layer, not a
// correctness layer, so any policy is sound.
const graphCacheCap = 8192

// Key is the 128-bit content key used throughout the store.
type Key = [16]byte

type memoKey struct {
	stmt Key
	in   rsg.Digest
}

type snapKey struct {
	prog Key
	fp   uint64
}

type nameKey struct {
	name string
	fp   uint64
}

// span locates a graph payload (excluding the digest prefix) in the log.
type span struct {
	off int64
	len int64
}

// SnapStmt is one statement's slice of a fixpoint snapshot.
type SnapStmt struct {
	ID     int
	Digest Key          // ir.StmtDigest of the statement at record time
	HasOut bool         // false: statement was never visited (unreachable)
	Out    []rsg.Digest // member digests of the out-state set, canonical order
}

// Snapshot is the persistent record of one whole-program run: the
// per-statement out-states plus enough run metadata to decide when the
// snapshot may be served (see analysis/persist.go for the rules).
type Snapshot struct {
	Prog        Key    // ir.(*Program).Digest()
	Name        string // program name, the handle for edit-delta lookup
	Fp          uint64 // options fingerprint (level and reduction knobs)
	Converged   bool   // true: a real fixpoint; false: budget-bounded prefix
	VisitBudget int    // the resolved MaxVisits the run executed under
	NodeBudget  int    // the resolved NodeBudget
	Visits      int    // visits actually performed
	Stmts       []SnapStmt
}

// ErrLocked reports that another Open holds the store file's exclusive
// advisory lock. Callers should refuse or run without a store rather
// than share the write path.
var ErrLocked = errors.New("store: locked by another process")

// Store is safe for concurrent use within one process; across
// processes, Open's advisory flock admits a single user per file.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	size   int64 // durable log length == append offset
	graphs map[rsg.Digest]span
	memos  map[memoKey][]rsg.Digest
	snaps  map[snapKey]*Snapshot
	byName map[nameKey]*Snapshot // latest snapshot per (program name, fp)
	cache  map[rsg.Digest]*rsg.Graph
}

// Open opens (creating if absent) the store file at path for writing,
// replays the log into the in-memory indexes, and truncates any torn
// tail left by a crash. A non-empty file that does not start with the
// store magic is refused rather than clobbered.
//
// Open takes an exclusive advisory lock (flock) on the file and holds
// it until Close: a second Open — in another process or in this one —
// gets ErrLocked instead of a chance to interleave appends with ours.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f.Fd()); err != nil {
		f.Close()
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("%s: %w", path, ErrLocked)
		}
		return nil, err
	}
	s := &Store{
		f:      f,
		graphs: make(map[rsg.Digest]span),
		memos:  make(map[memoKey][]rsg.Digest),
		snaps:  make(map[snapKey]*Snapshot),
		byName: make(map[nameKey]*Snapshot),
		cache:  make(map[rsg.Digest]*rsg.Graph),
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log, building the indexes, and truncates the file at
// the first malformed record.
func (s *Store) replay() error {
	st, err := s.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		if _, err := s.f.Write(magic); err != nil {
			return err
		}
		s.size = int64(len(magic))
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, st.Size()), 1<<20)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != string(magic) {
		return fmt.Errorf("store: %s is not a store file", s.f.Name())
	}
	good := int64(len(magic))
	var scratch []byte
	for {
		recLen, kind, body, err := readRecord(r, &scratch)
		if err != nil {
			break // torn/corrupt tail: keep everything before it
		}
		s.index(kind, body, good)
		good += recLen
	}
	if good < st.Size() {
		if err := s.f.Truncate(good); err != nil {
			return err
		}
	}
	s.size = good
	return nil
}

// readRecord reads one framed record: kind byte, uvarint body length,
// body, crc32(kind+body). Returns the total on-disk record length, the
// kind, and the body (aliasing *scratch).
func readRecord(r *bufio.Reader, scratch *[]byte) (int64, byte, []byte, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return 0, 0, nil, err
	}
	blen, err := binary.ReadUvarint(r)
	if err != nil || blen > maxRecordLen {
		return 0, 0, nil, errors.New("store: bad record length")
	}
	need := int(blen) + 1 // kind prepended for the CRC
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	buf[0] = kind
	if _, err := io.ReadFull(r, buf[1:]); err != nil {
		return 0, 0, nil, err
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return 0, 0, nil, err
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(crcb[:]) {
		return 0, 0, nil, errors.New("store: checksum mismatch")
	}
	total := int64(1 + uvarintLen(blen) + int(blen) + 4)
	return total, kind, buf[1:], nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// index registers one verified record. off is the record's start
// offset; graph spans point into the body past the digest prefix.
func (s *Store) index(kind byte, body []byte, off int64) {
	switch kind {
	case kindGraph:
		if len(body) < 16 {
			return
		}
		var d rsg.Digest
		copy(d[:], body[:16])
		// The body starts at off + 1 (kind) + uvarint(len); the graph
		// bytes start 16 further in, past the digest prefix.
		hdr := int64(1 + uvarintLen(uint64(len(body))))
		s.graphs[d] = span{off: off + hdr + 16, len: int64(len(body) - 16)}
	case kindMemo:
		if k, v, ok := decodeMemo(body); ok {
			s.memos[k] = v
		}
	case kindSnapshot:
		if snap, ok := decodeSnapshot(body); ok {
			s.snaps[snapKey{prog: snap.Prog, fp: snap.Fp}] = snap
			s.byName[nameKey{name: snap.Name, fp: snap.Fp}] = snap
		}
	}
}

// append frames and writes one record under the lock. The CRC covers
// kind+body, matching readRecord.
func (s *Store) append(kind byte, body []byte) error {
	rec := make([]byte, 0, len(body)+16)
	rec = append(rec, kind)
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	bodyStart := len(rec)
	rec = append(rec, body...)
	crc := crc32.NewIEEE()
	crc.Write([]byte{kind})
	crc.Write(rec[bodyStart:])
	rec = binary.LittleEndian.AppendUint32(rec, crc.Sum32())
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return err
	}
	s.size += int64(len(rec))
	return nil
}

// Close flushes and closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// PutGraph persists a frozen graph under its digest; duplicate puts are
// free no-ops (content addressing).
func (s *Store) PutGraph(g *rsg.Graph) error {
	d := g.Digest()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return os.ErrClosed
	}
	if _, ok := s.graphs[d]; ok {
		return nil
	}
	enc := rsg.EncodeFrozen(g)
	body := make([]byte, 0, 16+len(enc))
	body = append(body, d[:]...)
	body = append(body, enc...)
	off := s.size
	if err := s.append(kindGraph, body); err != nil {
		return err
	}
	hdr := int64(1 + uvarintLen(uint64(len(body))))
	s.graphs[d] = span{off: off + hdr + 16, len: int64(len(enc))}
	s.cachePut(d, g)
	return nil
}

// Graph loads the graph stored under d. Returns false on any failure:
// absent, unreadable, undecodable, or — the content-address check — if
// the decoded graph's recomputed digest does not equal d.
func (s *Store) Graph(d rsg.Digest) (*rsg.Graph, bool) {
	s.mu.Lock()
	if g, ok := s.cache[d]; ok {
		s.mu.Unlock()
		return g, true
	}
	sp, ok := s.graphs[d]
	f := s.f
	s.mu.Unlock()
	if !ok || f == nil {
		return nil, false
	}
	buf := make([]byte, sp.len)
	if _, err := f.ReadAt(buf, sp.off); err != nil {
		return nil, false
	}
	g, err := rsg.DecodeFrozen(buf)
	if err != nil || g.Digest() != d {
		return nil, false
	}
	g = rsg.Intern(g)
	s.mu.Lock()
	s.cachePut(d, g)
	s.mu.Unlock()
	return g, true
}

// cachePut inserts into the decode cache, evicting arbitrarily at the
// cap. Caller holds s.mu.
func (s *Store) cachePut(d rsg.Digest, g *rsg.Graph) {
	if len(s.cache) >= graphCacheCap {
		for k := range s.cache {
			delete(s.cache, k)
			break
		}
	}
	s.cache[d] = g
}

// PutMemo persists one transfer-memo entry: stmt is the statement
// transfer key (options fingerprint + statement identity), in the input
// graph digest, out the output set's member digests. The caller must
// have PutGraph'd every output graph first.
func (s *Store) PutMemo(stmt Key, in rsg.Digest, out []rsg.Digest) error {
	k := memoKey{stmt: stmt, in: in}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return os.ErrClosed
	}
	if _, ok := s.memos[k]; ok {
		return nil
	}
	body := make([]byte, 0, 40+16*len(out))
	body = append(body, stmt[:]...)
	body = append(body, in[:]...)
	body = binary.AppendUvarint(body, uint64(len(out)))
	for _, d := range out {
		body = append(body, d[:]...)
	}
	if err := s.append(kindMemo, body); err != nil {
		return err
	}
	s.memos[k] = append([]rsg.Digest(nil), out...)
	return nil
}

// Memo looks up a transfer-memo entry.
func (s *Store) Memo(stmt Key, in rsg.Digest) ([]rsg.Digest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.memos[memoKey{stmt: stmt, in: in}]
	return v, ok
}

func decodeMemo(body []byte) (memoKey, []rsg.Digest, bool) {
	if len(body) < 32 {
		return memoKey{}, nil, false
	}
	var k memoKey
	copy(k.stmt[:], body[:16])
	copy(k.in[:], body[16:32])
	body = body[32:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 || uint64(len(body[sz:])) != n*16 {
		return memoKey{}, nil, false
	}
	body = body[sz:]
	out := make([]rsg.Digest, n)
	for i := range out {
		copy(out[i][:], body[i*16:])
	}
	return k, out, true
}

// PutSnapshot persists a whole-run snapshot. The caller must have
// PutGraph'd every member graph referenced by the statement out-sets.
// A later snapshot under the same (program, fingerprint) key shadows
// earlier ones (last-writer-wins on replay, in log order).
func (s *Store) PutSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return os.ErrClosed
	}
	body := encodeSnapshot(snap)
	if err := s.append(kindSnapshot, body); err != nil {
		return err
	}
	s.snaps[snapKey{prog: snap.Prog, fp: snap.Fp}] = snap
	s.byName[nameKey{name: snap.Name, fp: snap.Fp}] = snap
	return nil
}

// Snapshot looks up the snapshot for an exact (program digest,
// fingerprint) pair — the warm-start probe.
func (s *Store) Snapshot(prog Key, fp uint64) (*Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.snaps[snapKey{prog: prog, fp: fp}]
	return v, ok
}

// SnapshotByName looks up the latest snapshot recorded under a program
// name and fingerprint, regardless of program digest — the edit-delta
// probe, for finding the previous version of a changed program.
func (s *Store) SnapshotByName(name string, fp uint64) (*Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.byName[nameKey{name: name, fp: fp}]
	return v, ok
}

// Counts reports index sizes (graphs, memo entries, snapshots) for
// tests and CLI diagnostics.
func (s *Store) Counts() (graphs, memos, snaps int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.graphs), len(s.memos), len(s.snaps)
}

func encodeSnapshot(snap *Snapshot) []byte {
	b := make([]byte, 0, 64+48*len(snap.Stmts))
	b = append(b, snap.Prog[:]...)
	b = binary.AppendUvarint(b, uint64(len(snap.Name)))
	b = append(b, snap.Name...)
	b = binary.LittleEndian.AppendUint64(b, snap.Fp)
	if snap.Converged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(snap.VisitBudget))
	b = binary.AppendUvarint(b, uint64(snap.NodeBudget))
	b = binary.AppendUvarint(b, uint64(snap.Visits))
	b = binary.AppendUvarint(b, uint64(len(snap.Stmts)))
	for _, st := range snap.Stmts {
		b = binary.AppendUvarint(b, uint64(st.ID))
		b = append(b, st.Digest[:]...)
		if st.HasOut {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(st.Out)))
		for _, d := range st.Out {
			b = append(b, d[:]...)
		}
	}
	return b
}

func decodeSnapshot(body []byte) (*Snapshot, bool) {
	snap := &Snapshot{}
	if len(body) < 16 {
		return nil, false
	}
	copy(snap.Prog[:], body[:16])
	body = body[16:]
	nameLen, sz := binary.Uvarint(body)
	if sz <= 0 || uint64(len(body[sz:])) < nameLen {
		return nil, false
	}
	body = body[sz:]
	snap.Name = string(body[:nameLen])
	body = body[nameLen:]
	if len(body) < 9 {
		return nil, false
	}
	snap.Fp = binary.LittleEndian.Uint64(body[:8])
	snap.Converged = body[8] != 0
	body = body[9:]
	var vals [4]uint64
	for i := range vals {
		v, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, false
		}
		vals[i] = v
		body = body[sz:]
	}
	snap.VisitBudget, snap.NodeBudget, snap.Visits = int(vals[0]), int(vals[1]), int(vals[2])
	nStmts := vals[3]
	if nStmts > maxRecordLen/17 {
		return nil, false
	}
	snap.Stmts = make([]SnapStmt, 0, nStmts)
	for i := uint64(0); i < nStmts; i++ {
		var st SnapStmt
		id, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, false
		}
		body = body[sz:]
		st.ID = int(id)
		if len(body) < 17 {
			return nil, false
		}
		copy(st.Digest[:], body[:16])
		st.HasOut = body[16] != 0
		body = body[17:]
		n, sz := binary.Uvarint(body)
		if sz <= 0 || uint64(len(body[sz:])) < n*16 {
			return nil, false
		}
		body = body[sz:]
		st.Out = make([]rsg.Digest, n)
		for j := range st.Out {
			copy(st.Out[j][:], body[j*16:])
		}
		body = body[n*16:]
		snap.Stmts = append(snap.Stmts, st)
	}
	return snap, len(body) == 0
}
