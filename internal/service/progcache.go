package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"

	"repro/internal/ir"
	"repro/internal/verdict"
)

// progCacheBytes bounds the summed name and source length of the
// cached programs. A compiled program measured 11–17× its source
// (9.4 KB for a 540-byte random program), so the cache stays under
// about 70 MB whatever clients send. The name counts too: a program
// keeps its name, so a long name with a short source must not slip
// past the bound.
const progCacheBytes = maxBodyBytes

// progKey identifies one compiled program: SHA-256 over the
// length-prefixed program name and the source. The name is part of the
// key because the store keys snapshots by Program.Name, so two names
// for one source are two programs; the length prefix keeps the split
// between name and source unambiguous.
type progKey [sha256.Size]byte

func programKey(name, source string) progKey {
	h := sha256.New()
	h.Write(binary.AppendUvarint(nil, uint64(len(name))))
	h.Write([]byte(name))
	h.Write([]byte(source))
	var k progKey
	h.Sum(k[:0])
	return k
}

// progCache holds successfully compiled programs across requests. The
// engine never modifies a Program, so requests for the same (name,
// source) share one. When an insert would take the summed name and
// source length past progCacheBytes the map is reset wholesale: entries
// are pure functions of their key, so eviction only costs
// recompilation.
type progCache struct {
	mu     sync.Mutex
	progs  map[progKey]*ir.Program
	bytes  int // summed name and source length of the cached programs
	hits   int64
	misses int64
}

// ProgramStats is the JSON form of the compiled-program cache counters:
// lookups served from the cache, lookups that compiled, and the
// programs held now.
type ProgramStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

func (c *progCache) stats() ProgramStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ProgramStats{Hits: c.hits, Misses: c.misses, Entries: len(c.progs)}
}

// compile returns the program for the request's source, compiling it
// on a cache miss. An empty name derives a stable one from the source
// hash, so resubmitting identical source still warm-starts.
func (c *progCache) compile(name, source string) (*ir.Program, error) {
	if source == "" {
		return nil, errors.New("empty source")
	}
	if name == "" {
		sum := sha256.Sum256([]byte(source))
		name = "src-" + hex.EncodeToString(sum[:6])
	}
	key := programKey(name, source)
	c.mu.Lock()
	prog, ok := c.progs[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		return prog, nil
	}

	prog, err := verdict.Compile(source)
	if err != nil {
		return nil, err
	}
	prog.Name = name

	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.progs[key]; ok {
		// A concurrent request compiled the same source first; share its
		// program so the digests are computed once.
		return cached, nil
	}
	size := len(name) + len(source)
	if c.progs == nil || c.bytes+size > progCacheBytes {
		c.progs = make(map[progKey]*ir.Program)
		c.bytes = 0
	}
	c.progs[key] = prog
	c.bytes += size
	return prog, nil
}
