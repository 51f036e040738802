// Package resultcache is a content-addressed, crash-safe, on-disk
// memo of simulation results. The simulator is deterministic: a run is
// fully described by its canonical scenario document (application,
// configuration, steps, scale, seed, fault plan, cycle budget), the
// code version and the job shape, so its output is perfectly cacheable
// and a sweep service can answer repeated or overlapping requests
// without re-simulating.
//
// Crash-safety and integrity are the design center, not add-ons:
//
//   - Writes are atomic: the entry is written to a temporary file in
//     the cache directory, synced, and renamed into place. Readers
//     never observe a torn entry; a crash mid-write leaves only a
//     *.tmp file that the next Open sweeps away.
//   - Reads are integrity-checked: every entry carries the SHA-256 of
//     its payload in a fixed-size header, and a truncated, bit-flipped,
//     or otherwise corrupt entry is treated as a cache miss (and
//     removed) rather than served. A damaged cache degrades to
//     recomputation, never to wrong answers.
//
// Entries are keyed by the SHA-256 of the canonical key string, so the
// key is tamper-evident too: Get re-derives the file name from the
// key, and an entry whose recorded key line disagrees is corrupt.
package resultcache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Key identifies one cacheable job result. Every field participates in
// the hash, in one fixed canonical form.
type Key struct {
	// Kind is the job shape ("simulate" or "bench"): distinct shapes
	// encode distinct payloads for the same document, so they must
	// never collide.
	Kind string
	// Doc is the experiment: the canonical text of one scenario
	// document (scenario.Scenario.Format). Two spellings of one
	// experiment print the same text, so they share an address; any
	// change to what runs changes the text.
	Doc string
	// Version names the code that produced the result. Results are
	// model output, so a model change must miss: bake a build/version
	// stamp in here.
	Version string
	// App, Config and Seed name an experiment without a document. Only
	// callers that key synthetic entries set them; a service key leaves
	// them zero, since Doc already holds all three.
	App    string
	Config string
	Seed   int64
}

// escaper keeps the canonical form one line whatever the fields hold:
// Doc is a multi-line document, and the entry-file key check reads
// exactly one line. Backslashes are escaped too, so a literal `\n`
// never aliases a newline.
var escaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// Canonical renders the key as one line with a fixed field order — the
// string that is hashed, and that each entry records for verification.
func (k Key) Canonical() string {
	return escaper.Replace(fmt.Sprintf("kind=%s app=%s config=%s seed=%d version=%s doc=%s",
		k.Kind, k.App, k.Config, k.Seed, k.Version, k.Doc))
}

// ID is the entry's content address: the hex SHA-256 of the canonical
// key string.
func (k Key) ID() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Stats counts cache traffic since Open. Corrupt entries also count as
// misses: Corrupt is the "of which" detail.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Corrupt uint64
	Writes  uint64
}

// Cache is an on-disk result cache rooted at one directory. Safe for
// concurrent use by any number of goroutines (and, because writes are
// atomic renames, by cooperating processes sharing the directory).
type Cache struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	writes  atomic.Uint64

	// mu serializes writers per process; cross-process safety comes
	// from unique temp names + atomic rename.
	mu sync.Mutex
}

// Open creates (if necessary) and opens a cache directory, sweeping
// any *.tmp litter a crashed writer left behind.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	for _, t := range tmps {
		os.Remove(t)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Writes:  c.writes.Load(),
	}
}

// path returns the entry file for a key.
func (c *Cache) path(k Key) string { return filepath.Join(c.dir, k.ID()+".entry") }

// header is the fixed first two lines of an entry file:
//
//	cedarcache v1 sha256=<hex payload hash> bytes=<payload length>
//	key=<canonical key line>
//
// followed by one blank line, then the raw payload.
const magic = "cedarcache v1"

// Get returns the cached payload for key. ok is false on a miss — the
// entry is absent, or it is present but truncated, bit-flipped, or
// recorded under a different key, in which case the damaged file is
// removed so the slot heals on the next Put. Get never returns an
// error: a cache that cannot be read is a cache miss by definition;
// callers recompute.
func (c *Cache) Get(key Key) (payload []byte, ok bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	payload, err = decode(data, key)
	if err != nil {
		// Corrupt: report as a miss, and remove the damaged entry so it
		// cannot keep tripping readers. Removal re-verifies under the
		// writer lock: a concurrent Put may have renamed a fresh, valid
		// entry into place since the read above, and that entry must
		// survive.
		c.corrupt.Add(1)
		c.misses.Add(1)
		c.mu.Lock()
		if cur, rerr := os.ReadFile(c.path(key)); rerr == nil {
			if _, derr := decode(cur, key); derr != nil {
				os.Remove(c.path(key))
			}
		}
		c.mu.Unlock()
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// decode verifies an entry file against the key and returns its
// payload.
func decode(data []byte, key Key) ([]byte, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	head, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("resultcache: entry truncated in header: %w", err)
	}
	head = strings.TrimSuffix(head, "\n")
	fields := strings.Fields(head)
	if len(fields) != 4 || fields[0]+" "+fields[1] != magic {
		return nil, fmt.Errorf("resultcache: bad entry magic %q", head)
	}
	wantSum, ok1 := strings.CutPrefix(fields[2], "sha256=")
	nStr, ok2 := strings.CutPrefix(fields[3], "bytes=")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("resultcache: bad entry header %q", head)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("resultcache: bad entry length %q", nStr)
	}
	keyLine, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("resultcache: entry truncated in key line: %w", err)
	}
	if got, want := strings.TrimSuffix(keyLine, "\n"), "key="+key.Canonical(); got != want {
		return nil, fmt.Errorf("resultcache: entry key %q does not match %q", got, want)
	}
	if blank, err := r.ReadString('\n'); err != nil || blank != "\n" {
		return nil, fmt.Errorf("resultcache: entry missing header separator")
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("resultcache: reading payload: %w", err)
	}
	if len(payload) != n {
		return nil, fmt.Errorf("resultcache: payload is %d bytes, header says %d", len(payload), n)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("resultcache: payload hash mismatch")
	}
	return payload, nil
}

// Put stores payload under key, atomically: concurrent readers see
// either the previous entry or the complete new one, never a torn
// write. Errors are I/O problems (disk full, permissions) — transient
// from a job's point of view; the result itself is still in hand.
func (c *Cache) Put(key Key, payload []byte) error {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s sha256=%s bytes=%d\n", magic, hex.EncodeToString(sum[:]), len(payload))
	fmt.Fprintf(&b, "key=%s\n\n", key.Canonical())
	b.Write(payload)

	c.mu.Lock()
	defer c.mu.Unlock()
	final := c.path(key)
	tmp, err := os.CreateTemp(c.dir, key.ID()+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.Write(b.Bytes())
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(name, final)
	}
	if werr != nil {
		os.Remove(name)
		return fmt.Errorf("resultcache: writing %s: %w", filepath.Base(final), werr)
	}
	// Best-effort directory sync so the rename itself survives a
	// crash; entry content is already safe.
	if d, derr := os.Open(c.dir); derr == nil {
		d.Sync()
		d.Close()
	}
	c.writes.Add(1)
	return nil
}

// Len reports how many complete entries the cache directory holds
// (diagnostic; walks the directory).
func (c *Cache) Len() int {
	ents, err := filepath.Glob(filepath.Join(c.dir, "*.entry"))
	if err != nil {
		return 0
	}
	return len(ents)
}
