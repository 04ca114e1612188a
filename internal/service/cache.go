package service

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/diskcache"
)

// PreparedCache is the daemon's content-addressed store of core.Prepared
// artifacts. Specs are canonically hashed (core.SpecDigest covers the
// function bodies the module IR derives from plus the taint spec), and
// each distinct digest is prepared at most once: concurrent misses on the
// same digest are deduplicated singleflight-style, with every waiter
// sharing the one build. Entries are immutable after insertion — Prepared
// values are read-only by construction — so a cached value is handed to
// any number of in-flight jobs without copying or locking beyond the
// lookup itself.
//
// Capacity is bounded by an LRU policy over completed entries; builds in
// flight are pinned and never evicted mid-construction. Hit, miss, and
// eviction counters feed the daemon's /v1/stats endpoint.
type PreparedCache struct {
	mu sync.Mutex
	// capacity bounds completed entries; <= 0 means unbounded.
	capacity int
	// order is the recency list, front = most recently used. Values are
	// *cacheEntry.
	order   *list.List
	entries map[string]*list.Element
	// inflight tracks digests currently being prepared; joiners wait on
	// the call instead of duplicating the build.
	inflight map[string]*inflightCall

	hits      uint64
	misses    uint64
	diskHits  uint64
	evictions uint64

	// prepare builds the artifact on a miss; tests substitute it to count
	// and delay builds. Defaults to core.Prepare.
	prepare func(*apps.Spec) (*core.Prepared, error)

	// disk is the optional persistent tier beneath the LRU. A Prepared
	// value itself is not serializable (it holds the built module and the
	// predecoded program), so the disk entry is the canonical spec bytes
	// under the spec digest: its presence proves this digest was prepared
	// by an earlier process, and the artifact is rebuilt lazily through
	// the same singleflight that guards cold misses — a warm disk after a
	// restart therefore pays at most one build per digest, never a
	// stampede, and the rebuild is classified as a disk hit rather than a
	// miss. Nil disables persistence.
	disk *diskcache.Layer

	// onBuild, when set, observes the latency of every actual prepare
	// (cold miss or disk-hit rebuild); the server points it at the
	// "prepare" stage histogram.
	onBuild func(time.Duration)
}

type cacheEntry struct {
	digest string
	p      *core.Prepared
}

type inflightCall struct {
	done chan struct{}
	p    *core.Prepared
	err  error
}

// NewPreparedCache returns a cache bounded to capacity completed entries
// (<= 0 means unbounded).
func NewPreparedCache(capacity int) *PreparedCache {
	return &PreparedCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
		prepare:  core.Prepare,
	}
}

// Get returns the Prepared artifact for spec, building it at most once
// per content address no matter how many goroutines ask concurrently.
// The returned digest is the entry's content address. A build error is
// returned to every waiter of that flight and is not cached: the next
// Get retries.
func (c *PreparedCache) Get(spec *apps.Spec) (*core.Prepared, string, error) {
	digest := core.SpecDigest(spec)
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		c.hits++
		p := el.Value.(*cacheEntry).p
		c.mu.Unlock()
		return p, digest, nil
	}
	if call, ok := c.inflight[digest]; ok {
		// Another goroutine is already building this digest; joining its
		// flight serves this caller without a build, which the counters
		// report as a hit (misses count actual builds).
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.p, digest, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[digest] = call
	disk := c.disk
	c.mu.Unlock()

	// Classify the build before running it: a digest resident on the
	// persistent tier is a disk hit (warm restart, lazy rebuild), an
	// absent one a genuine miss. Concurrent requesters are already
	// parked on the flight, so the disk probe runs at most once per
	// in-memory miss.
	_, fromDisk := disk.Get(digest)
	c.mu.Lock()
	if fromDisk {
		c.diskHits++
	} else {
		c.misses++
	}
	c.mu.Unlock()

	start := time.Now()
	call.p, call.err = c.prepare(spec)
	if c.onBuild != nil {
		c.onBuild(time.Since(start))
	}

	c.mu.Lock()
	delete(c.inflight, digest)
	if call.err == nil {
		c.insertLocked(digest, call.p)
	}
	c.mu.Unlock()
	if call.err == nil && !fromDisk {
		disk.Put(digest, call.p)
	}
	close(call.done)
	return call.p, digest, call.err
}

// SetDisk attaches the persistent tier; call before serving traffic.
func (c *PreparedCache) SetDisk(disk *diskcache.Layer) {
	c.mu.Lock()
	c.disk = disk
	c.mu.Unlock()
}

// DiskStats snapshots the persistent tier's store counters (zero when
// persistence is disabled).
func (c *PreparedCache) DiskStats() diskcache.Stats {
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	return disk.Stats()
}

// insertLocked files a completed build at the front of the recency list
// and evicts from the back past capacity. Caller holds mu.
func (c *PreparedCache) insertLocked(digest string, p *core.Prepared) {
	if el, ok := c.entries[digest]; ok {
		// A racing flight for the same digest can only happen if entries
		// were dropped between; keep the existing value authoritative.
		c.order.MoveToFront(el)
		return
	}
	c.entries[digest] = c.order.PushFront(&cacheEntry{digest: digest, p: p})
	for c.capacity > 0 && c.order.Len() > c.capacity {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).digest)
		c.evictions++
	}
}

// Contains reports whether digest currently has a completed entry,
// without touching recency or counters.
func (c *PreparedCache) Contains(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[digest]
	return ok
}

// CanonicalBytes returns the canonical spec payload for digest if this
// daemon knows it — from the in-memory entry (re-canonicalized from the
// resident spec) or from the persistent tier (whose payload IS the
// canonical byte stream, verified against the digest on read). It never
// triggers a build and never touches recency or hit/miss counters; the
// cluster's digest federation endpoint serves from it.
func (c *PreparedCache) CanonicalBytes(digest string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok {
		p := el.Value.(*cacheEntry).p
		c.mu.Unlock()
		return core.CanonicalSpecBytes(p.Spec), true
	}
	disk := c.disk
	c.mu.Unlock()
	if v, ok := disk.Get(digest); ok {
		if data, ok := v.([]byte); ok {
			return data, true
		}
	}
	return nil, false
}

// SeedDisk files pre-serialized canonical spec bytes for digest on the
// persistent tier without building anything. Workers use it to adopt a
// spec receipt federated from their coordinator: the next Get for that
// digest rebuilds through the disk-hit path instead of counting a cold
// miss. A no-op without a persistent tier.
func (c *PreparedCache) SeedDisk(digest string, payload []byte) error {
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	return disk.PutRaw(digest, payload)
}

// Digests returns the resident content addresses in most- to
// least-recently-used order.
func (c *PreparedCache) Digests() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).digest)
	}
	return out
}

// Stats snapshots the counters.
func (c *PreparedCache) Stats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		DiskHits:  c.diskHits,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
	}
}
