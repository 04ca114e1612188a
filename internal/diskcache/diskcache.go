// Package diskcache holds the daemon's one content-addressed cache
// (Cache: an in-memory LRU with singleflight builds, cache.go) and the
// on-disk layer beneath it: one file per key under a versioned root,
// written via temp-file + atomic rename so a reader never observes a
// partial entry and a crash never leaves a half-written file under a
// live name.
//
// The store is deliberately paranoid about what it reads back. Every
// file carries a self-describing header (magic, store version, payload
// length, payload checksum); anything that fails any of those checks —
// truncated writes, bit rot, a file renamed to the wrong digest, an
// entry written by a different store version — is treated as a miss and
// deleted on the spot, so a damaged cache can degrade performance but
// can never poison a result. Version invalidation is structural: the
// version string is part of the root path, so entries written under an
// older semantic version are simply never looked up again.
//
// The wazero compiled-module file cache is the pattern (digest-named
// files, atomic rename, version-stamped invalidation); this package
// generalizes it behind a byte-level Store plus a typed Layer that the
// modelreg Registry plugs its wire form into.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
)

// magic tags every cache file; a file without it was not written by this
// package and is dropped rather than interpreted.
const magic = "perftaint-diskcache/1"

// Store is a content-addressed file store: Put files a payload under its
// digest, Get returns it if — and only if — the bytes on disk still
// verify. A Store is safe for concurrent use by any number of
// goroutines and, because writes are atomic renames of fully-written
// temp files, by any number of processes sharing the directory.
type Store struct {
	root    string
	version string

	mu      sync.Mutex
	hits    uint64
	misses  uint64
	puts    uint64
	dropped uint64 // corrupt/short/wrong-version files deleted on read
}

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Hits counts Gets that returned a verified payload; Misses counts
	// absent entries plus every entry dropped as unreadable.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts successfully persisted entries.
	Puts uint64 `json:"puts"`
	// Dropped counts corrupt, truncated, or wrong-version files deleted
	// during Get — each also counted as a miss.
	Dropped uint64 `json:"dropped"`
}

// Open creates (if needed) and returns the store rooted at
// dir/<version>: bumping version retires every previously written entry
// without touching it, because the old files live under a root the new
// store never reads.
func Open(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty cache directory")
	}
	root := filepath.Join(dir, sanitize(version))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: create %s: %w", root, err)
	}
	return &Store{root: root, version: version}, nil
}

// Root returns the versioned directory entries live in.
func (s *Store) Root() string { return s.root }

// Get returns the payload stored under digest. Any entry that fails
// verification — wrong magic or version, truncated payload, checksum
// mismatch — is deleted and reported as a miss, never returned.
func (s *Store) Get(digest string) ([]byte, bool) {
	if s == nil || !validDigest(digest) {
		return nil, false
	}
	if f, ok := faultinject.Eval(faultinject.SiteDiskRead); ok && f.Kind == faultinject.KindError {
		// An injected read error behaves exactly like an absent entry: the
		// never-poison contract means unreadable always degrades to miss.
		s.count(func() { s.misses++ })
		return nil, false
	}
	raw, err := os.ReadFile(s.path(digest))
	if err != nil {
		s.count(func() { s.misses++ })
		return nil, false
	}
	payload, ok := s.verify(raw)
	if !ok {
		// Never poison: an unreadable entry is removed so the next Put
		// can replace it with a good one.
		_ = os.Remove(s.path(digest))
		s.count(func() { s.misses++; s.dropped++ })
		return nil, false
	}
	s.count(func() { s.hits++ })
	return payload, true
}

// Put persists payload under digest: the header and payload are written
// to a temp file in the same directory, synced, and renamed into place,
// so concurrent readers (and crashes at any instant) see either the old
// entry or the complete new one.
func (s *Store) Put(digest string, payload []byte) error {
	if s == nil {
		return nil
	}
	if !validDigest(digest) {
		return fmt.Errorf("diskcache: invalid digest %q", digest)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s\n%s\n%d %s\n", magic, s.version, len(payload), hex.EncodeToString(sum[:]))
	tmp, err := os.CreateTemp(s.root, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("diskcache: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	full := append([]byte(header), payload...)
	if f, ok := faultinject.Eval(faultinject.SiteDiskWrite); ok {
		switch f.Kind {
		case faultinject.KindError:
			tmp.Close()
			return faultinject.Errf(f)
		case faultinject.KindTorn:
			// A torn write: a prefix of the entry lands under the live name
			// with no error reported — the worst case the verify-on-read
			// header protects against. Get must treat it as a miss.
			cut := faultinject.Cut(f, len(full))
			tmp.Write(full[:cut]) //nolint:errcheck // injected partial write
			tmp.Close()
			if err := os.Rename(tmp.Name(), s.path(digest)); err != nil {
				return fmt.Errorf("diskcache: publish %s: %w", digest, err)
			}
			s.count(func() { s.puts++ })
			return nil
		case faultinject.KindCrash:
			cut := faultinject.Cut(f, len(full))
			tmp.Write(full[:cut]) //nolint:errcheck // injected partial write
			tmp.Close()
			return faultinject.Errf(f)
		}
	}
	_, werr := tmp.Write(full)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("diskcache: write %s: %w", digest, werr)
	}
	if err := os.Rename(tmp.Name(), s.path(digest)); err != nil {
		return fmt.Errorf("diskcache: publish %s: %w", digest, err)
	}
	// The rename made the entry visible; fsyncing the directory makes it
	// durable. Without this, a power loss after Put returns can forget
	// the directory entry even though the data blocks were synced.
	syncDir(s.root)
	s.count(func() { s.puts++ })
	return nil
}

// syncDir fsyncs a directory so entry renames inside it survive power
// loss; best-effort because not every platform supports directory sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort durability barrier
	d.Close()
}

// Delete removes the entry for digest, if present.
func (s *Store) Delete(digest string) {
	if s == nil || !validDigest(digest) {
		return
	}
	_ = os.Remove(s.path(digest))
}

// Len counts the resident entries (temp files excluded).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && validDigest(e.Name()) {
			n++
		}
	}
	return n
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Puts: s.puts, Dropped: s.dropped}
}

func (s *Store) path(digest string) string { return filepath.Join(s.root, digest) }

func (s *Store) count(f func()) {
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// verify parses a raw cache file and returns its payload only if every
// header check passes.
func (s *Store) verify(raw []byte) ([]byte, bool) {
	rest, ok := cutLine(raw, magic)
	if !ok {
		return nil, false
	}
	rest, ok = cutLine(rest, s.version)
	if !ok {
		return nil, false
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, false
	}
	var length int
	var sumHex string
	if _, err := fmt.Sscanf(string(rest[:nl]), "%d %s", &length, &sumHex); err != nil {
		return nil, false
	}
	payload := rest[nl+1:]
	if length < 0 || len(payload) != length {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, false
	}
	return payload, true
}

// cutLine strips one expected header line (text + newline) off raw.
func cutLine(raw []byte, want string) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(want))
	if !ok {
		return nil, false
	}
	return bytes.CutPrefix(rest, []byte{'\n'})
}

// validDigest accepts the hex content addresses the caches use as file
// names — and nothing that could escape the root or collide with temp
// files.
func validDigest(d string) bool {
	if len(d) < 16 || len(d) > 128 {
		return false
	}
	for _, c := range d {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// sanitize maps a version string onto a safe directory name.
func sanitize(v string) string {
	if v == "" {
		return "v0"
	}
	out := make([]rune, 0, len(v))
	for _, c := range v {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
