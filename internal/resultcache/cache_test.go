package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testDoc is a canonical scenario document: the shape of every key
// the service mints.
func testDoc(seed int64) string {
	return fmt.Sprintf("name: simulate\napp: FLO52\nconfig: 8proc\nsteps: 2\nscale: 1\nseed: %d\nplan: ce:1@76414\n", seed)
}

func testKey(seed int64) Key {
	return Key{Kind: "simulate", Doc: testDoc(seed), Version: "test-v1"}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	payload := []byte("app=FLO52 config=8proc ct=123\nce0 user=10\n")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Writes != 1 || s.Corrupt != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestKeyFieldsAllParticipate(t *testing.T) {
	base := testKey(1)
	variants := []Key{
		func() Key { k := base; k.Kind = "bench"; return k }(),
		func() Key { k := base; k.Doc = testDoc(2); return k }(),
		func() Key { k := base; k.Version = "test-v2"; return k }(),
		func() Key { k := base; k.App = "FLO52"; return k }(),
		func() Key { k := base; k.Config = "8proc"; return k }(),
		func() Key { k := base; k.Seed = 1; return k }(),
	}
	seen := map[string]bool{base.ID(): true}
	for i, v := range variants {
		if seen[v.ID()] {
			t.Fatalf("variant %d (%s) collides with a previous key", i, v.Canonical())
		}
		seen[v.ID()] = true
	}
}

// A workload document carried in the scenario text has its newlines
// escaped into the canonical form, and any single-character edit to
// it is a different key.
func TestKeyWorkloadIdentity(t *testing.T) {
	a := testKey(1)
	a.Doc = "name: simulate\nconfig: 8proc\nworkload:\n  workload: w\n  steps: 2\n"
	b := a
	b.Doc = strings.Replace(a.Doc, "steps: 2", "steps: 3", 1)
	if a.ID() == b.ID() {
		t.Fatal("edited workload document shares a cache key")
	}
	if c := a.Canonical(); !strings.Contains(c, `doc=name: simulate\nconfig: 8proc\nworkload:\n  workload: w\n`) {
		t.Fatalf("canonical form not newline-escaped: %q", c)
	}
}

// entryFile finds the single .entry file the tests wrote.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one entry, got %v (%v)", ents, err)
	}
	return ents[0]
}

// The integrity gate: a truncated entry is detected, reported as a
// miss, removed, and recomputed via the next Put — never served.
func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(2)
	payload := []byte("a long enough payload to truncate meaningfully")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	data, _ := os.ReadFile(path)
	for _, cut := range []int{len(data) - 1, len(data) / 2, 10, 0} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("truncated-to-%d entry served as a hit: %q", cut, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("truncated-to-%d entry not removed after detection", cut)
		}
		// Recompute path: the slot heals.
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("recomputed entry not served after truncation-to-%d", cut)
		}
	}
	if s := c.Stats(); s.Corrupt != 4 {
		t.Fatalf("corrupt count = %d, want 4 (stats %+v)", s.Corrupt, s)
	}
}

// Bit flips anywhere in the entry — header, key line, payload — are
// detected and treated as misses.
func TestBitFlippedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(3)
	payload := []byte("deterministic result bytes, checksummed")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	pristine, _ := os.ReadFile(entryFile(t, dir))
	for _, pos := range []int{0, 20, len(pristine) - len(payload) + 3, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[pos] ^= 0x40
		if err := os.WriteFile(entryFile0(dir, key), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("bit-flip at %d served as a hit: %q", pos, got)
		}
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Corrupt != 4 {
		t.Fatalf("corrupt count = %d, want 4 (stats %+v)", s.Corrupt, s)
	}
}

// entryFile0 rebuilds the entry path for a key (the file may have been
// removed by a corrupt-detection pass).
func entryFile0(dir string, key Key) string {
	return filepath.Join(dir, key.ID()+".entry")
}

// An entry stored under a different key's file name (tampered cache)
// is rejected by the recorded-key check.
func TestKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	a, b := testKey(4), testKey(5)
	if err := c.Put(a, []byte("a's result")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(entryFile0(dir, a))
	if err := os.WriteFile(entryFile0(dir, b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(b); ok {
		t.Fatalf("entry recorded for key a served for key b: %q", got)
	}
}

// A crash mid-write (the tmp file survives, the rename never happened)
// leaves no visible entry, and Open sweeps the litter.
func TestCrashMidWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(6)
	tmp := filepath.Join(dir, key.ID()+".tmp-crashed")
	if err := os.WriteFile(tmp, []byte("half an ent"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("tmp litter served as a hit")
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(tmp); !os.IsNotExist(statErr) {
		t.Fatal("Open did not sweep crashed tmp file")
	}
	_ = c2
}

func TestConcurrentPutGet(t *testing.T) {
	c, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := testKey(int64(i % 5))
				want := []byte(fmt.Sprintf("result for seed %d", i%5))
				c.Put(key, want)
				if got, ok := c.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: wrong payload %q", g, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Fatalf("cache holds %d entries, want 5", c.Len())
	}
}

// TestMultiLineDocRoundTrips: a multi-line document must not leak
// newlines into the entry's one-line key record — if it did, every Get
// would fail verification, remove the entry, and miss, so the cache
// could never go warm. Every field is escaped, not just Doc.
func TestMultiLineDocRoundTrips(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []Key{
		{Kind: "bench", Version: "test-v1", Doc: "name: tiny\napp: FLO52\nconfig: 1proc\nsteps: 1\n"},
		{Kind: "simulate", Version: "test-v1", App: "X\nplan: ce:1@5", Config: "8proc"},
	} {
		payload := []byte(`{"version": 1, "records": []}`)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("key %q: Get = %q, %v; want a hit with the stored payload", key.Canonical(), got, ok)
		}
		if strings.Contains(key.Canonical(), "\n") {
			t.Fatalf("canonical form not one line: %q", key.Canonical())
		}
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Fatalf("multi-line key flagged corrupt: %+v", s)
	}
	key := Key{Kind: "bench", Version: "test-v1", Doc: "name: tiny\napp: FLO52\n"}
	if !strings.Contains(key.Canonical(), `doc=name: tiny\napp:`) {
		t.Fatalf("canonical form not newline-escaped: %q", key.Canonical())
	}
	// Escaping must not alias: a literal backslash-n differs from a
	// newline.
	other := key
	other.Doc = strings.ReplaceAll(key.Doc, "\n", `\n`)
	if other.ID() == key.ID() {
		t.Fatal("escaped and literal documents share an address")
	}
}
