package service

import (
	"strings"
	"testing"
)

const cacheTestSource = `
struct node { struct node *nxt; };
void main(void) {
    struct node *p;
    p = malloc(sizeof(struct node));
    p->nxt = NULL;
}
`

// TestProgramCacheBound checks that the cache serves a repeated (name,
// source) pair from one program, and resets wholesale when an insert
// would take its cached names and sources past progCacheBytes.
func TestProgramCacheBound(t *testing.T) {
	var c progCache
	first, err := c.compile("a", cacheTestSource)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.compile("a", cacheTestSource)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("repeated request compiled a second program")
	}
	if _, err := c.compile("b", cacheTestSource); err != nil {
		t.Fatal(err)
	}
	if want := (ProgramStats{Hits: 1, Misses: 2, Entries: 2}); c.stats() != want {
		t.Fatalf("stats %+v, want %+v", c.stats(), want)
	}

	// A comment pads the source to just under the bound: the insert
	// passes it, so the two small programs are dropped.
	big := "// " + strings.Repeat("x", progCacheBytes-2*len(cacheTestSource)) + "\n" + cacheTestSource
	if _, err := c.compile("big", big); err != nil {
		t.Fatal(err)
	}
	if got := c.stats().Entries; got != 1 {
		t.Fatalf("entries after passing the bound = %d, want 1", got)
	}
	if _, err := c.compile("a", cacheTestSource); err != nil {
		t.Fatal(err)
	}
	if want := (ProgramStats{Hits: 1, Misses: 4, Entries: 1}); c.stats() != want {
		t.Fatalf("stats %+v, want %+v", c.stats(), want)
	}

	// A long name counts against the bound like a long source.
	if _, err := c.compile(strings.Repeat("n", progCacheBytes-len(cacheTestSource)-1), cacheTestSource); err != nil {
		t.Fatal(err)
	}
	if got := c.stats().Entries; got != 1 {
		t.Fatalf("entries after a long name passed the bound = %d, want 1", got)
	}
}

// TestProgramKeySplitsNameFromSource checks that moving bytes between
// the name and the source changes the key.
func TestProgramKeySplitsNameFromSource(t *testing.T) {
	if programKey("a\x00", "b") == programKey("a", "\x00b") {
		t.Error("name and source boundary is ambiguous")
	}
}
