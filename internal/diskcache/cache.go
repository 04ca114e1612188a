package diskcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is the daemon's one content-addressed cache: an in-memory LRU
// over completed values, a singleflight over keys being built, and an
// optional disk Layer beneath. Each distinct key is built at most once
// no matter how many goroutines ask concurrently — joiners wait on the
// in-flight build and share its result — and values are immutable after
// insertion, so one cached value is handed to any number of callers
// without copying or locking beyond the lookup itself.
//
// Capacity bounds completed entries only; builds in flight are pinned
// and never evicted mid-construction. Build errors are returned to every
// waiter of that flight and never cached: the next Get retries. A build
// that panics is a failed build too (see BuildPanicError).
type Cache[V any] struct {
	mu sync.Mutex
	// capacity bounds completed entries; <= 0 means unbounded.
	capacity int
	// order is the recency list, front = most recently used. Values are
	// *cacheEntry[V].
	order   *list.List
	entries map[string]*list.Element
	// inflight tracks keys currently being built; joiners wait on the
	// flight instead of duplicating the build.
	inflight map[string]*flight[V]

	// disk is the optional persistent tier: built values are written
	// through, and a restarted process answers from disk without running
	// the build at all. Nil disables it.
	disk *Layer[V]

	hits      uint64
	misses    uint64
	diskHits  uint64
	evictions uint64
}

type cacheEntry[V any] struct {
	key string
	v   V
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// CacheStats is a point-in-time snapshot of a Cache's counters; it is
// the wire shape of both "cache" and "models" in GET /v1/stats.
type CacheStats struct {
	// Hits counts in-memory hits, including singleflight joins.
	Hits uint64 `json:"hits"`
	// Misses counts actual builds (a failed build is a miss too): neither
	// memory nor disk had the entry.
	Misses uint64 `json:"misses"`
	// DiskHits counts values served from the persistent tier with no
	// build. Disk hits are not counted as misses; always 0 for a cache
	// without a disk tier.
	DiskHits uint64 `json:"disk_hits"`
	// Evictions counts LRU evictions of completed entries.
	Evictions uint64 `json:"evictions"`
	// Entries and Capacity snapshot residency against the bound.
	Entries int `json:"entries"`
	// Capacity is the LRU bound (0 = unbounded).
	Capacity int `json:"capacity"`
}

// NewCache returns a memory-only cache bounded to capacity completed
// entries (<= 0 means unbounded).
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// SetDisk attaches the persistent tier; call before serving traffic.
func (c *Cache[V]) SetDisk(disk *Layer[V]) {
	c.mu.Lock()
	c.disk = disk
	c.mu.Unlock()
}

// Get is GetContext for a caller that never gives up.
func (c *Cache[V]) Get(key string, build func() (V, error)) (V, bool, error) {
	return c.GetContext(context.Background(), key, build)
}

// GetContext returns the value stored under key, walking memory, then
// disk, then build. The returned bool reports whether the value came from
// the cache (memory, an in-flight build this call joined, or disk) rather
// than from this call's own build.
//
// ctx belongs to the caller as a joiner: one waiting on someone else's
// flight returns ctx.Err() as soon as ctx ends, while the build carries on
// for everyone else. The caller that runs the build is not interrupted — a
// started build runs to completion and is cached, whoever is left to see
// it.
func (c *Cache[V]) GetContext(ctx context.Context, key string, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := el.Value.(*cacheEntry[V]).v
		c.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		// Another goroutine is already building this key; joining its
		// flight serves this caller without a build, which the counters
		// report as a hit (misses count actual builds).
		c.hits++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.v, true, fl.err
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		}
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	disk := c.disk
	c.mu.Unlock()

	// However this call leaves — a build or disk read that panics
	// included — the flight is released: joiners of a panicked flight
	// receive a BuildPanicError, nothing is cached, the key is buildable
	// again, and the panic itself keeps unwinding this goroutine.
	settled := false
	defer func() {
		if !settled {
			var zero V
			fl.v, fl.err = zero, &BuildPanicError{Key: key}
			c.mu.Lock()
			delete(c.inflight, key)
			c.misses++
			c.mu.Unlock()
		}
		close(fl.done)
	}()

	// Joiners of this flight share the disk read like they would share a
	// build.
	var fromDisk bool
	if fl.v, fromDisk = disk.Get(key); !fromDisk {
		fl.v, fl.err = build()
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if fromDisk {
		c.diskHits++
	} else {
		c.misses++
	}
	if fl.err == nil {
		fl.v = c.insertLocked(key, fl.v)
	}
	c.mu.Unlock()
	settled = true
	if fl.err == nil && !fromDisk {
		disk.Put(key, fl.v)
	}
	return fl.v, fromDisk, fl.err
}

// BuildPanicError is what the joiners of an in-flight build receive when
// the goroutine running it panicked: the value will never arrive, and the
// next Get of the key builds afresh.
type BuildPanicError struct {
	// Key is the content address whose build panicked.
	Key string
}

// Error names the key whose build panicked.
func (e *BuildPanicError) Error() string {
	return fmt.Sprintf("diskcache: the build of %s panicked", e.Key)
}

// Lookup is Get's tier walk minus the build: memory, then disk (counted
// as a disk hit and promoted into the LRU), else not found. A memory hit
// touches recency but not the hit counter, and an absent key is not a
// miss — Lookup backs GET-by-key, where absence is a 404, never a build
// trigger.
func (c *Cache[V]) Lookup(key string) (V, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		v := el.Value.(*cacheEntry[V]).v
		c.mu.Unlock()
		return v, true
	}
	disk := c.disk
	c.mu.Unlock()
	v, ok := disk.Get(key)
	if !ok {
		return v, false
	}
	c.mu.Lock()
	c.diskHits++
	v = c.insertLocked(key, v)
	c.mu.Unlock()
	return v, true
}

// insertLocked files a completed value at the front of the recency list,
// evicts from the back past capacity, and returns the resident value: a
// key inserted meanwhile (a Lookup racing a Get over the same disk
// entry) stays authoritative. Caller holds mu.
func (c *Cache[V]) insertLocked(key string, v V) V {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).v
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, v: v})
	for c.capacity > 0 && c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry[V]).key)
		c.evictions++
	}
	return v
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		DiskHits:  c.diskHits,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
	}
}

// DiskStats snapshots the persistent tier's store counters (zero when
// persistence is disabled).
func (c *Cache[V]) DiskStats() Stats {
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	return disk.Stats()
}
