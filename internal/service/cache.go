package service

import (
	"context"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/diskcache"
)

// PreparedCache is the daemon's content-addressed store of core.Prepared
// artifacts: the typed face of a memory-only diskcache.Cache. Specs are
// canonically hashed (core.SpecDigest covers the function bodies the
// module IR derives from plus the taint spec), and each distinct digest
// is prepared at most once however many goroutines ask concurrently.
// Prepared values are read-only by construction, so one cached value
// serves any number of in-flight jobs. There is no disk tier: a Prepared
// holds the built module and the predecoded program and cannot be
// serialized, so after a restart it is simply rebuilt, once per digest.
type PreparedCache struct {
	c *diskcache.Cache[*core.Prepared]

	// prepare builds the artifact on a miss; tests substitute it to count
	// and delay builds. Defaults to core.Prepare.
	prepare func(*apps.Spec) (*core.Prepared, error)

	// buildTime observes the latency of every actual prepare; the server
	// passes the "prepare" stage histogram.
	buildTime *Histogram
}

// NewPreparedCache returns a cache bounded to capacity completed entries
// (<= 0 means unbounded) that times its builds into buildTime.
func NewPreparedCache(capacity int, buildTime *Histogram) *PreparedCache {
	return &PreparedCache{
		c:         diskcache.NewCache[*core.Prepared](capacity),
		prepare:   core.Prepare,
		buildTime: buildTime,
	}
}

// Get returns the Prepared artifact for spec and its content address,
// building it at most once per digest. A build error is returned to
// every waiter of that flight and is not cached: the next Get retries. A
// caller waiting on someone else's build returns ctx.Err() once ctx ends.
func (c *PreparedCache) Get(ctx context.Context, spec *apps.Spec) (*core.Prepared, string, error) {
	digest := core.SpecDigest(spec)
	p, _, err := c.c.GetContext(ctx, digest, func() (*core.Prepared, error) {
		defer c.buildTime.ObserveSince(time.Now())
		return c.prepare(spec)
	})
	return p, digest, err
}

// Stats snapshots the counters.
func (c *PreparedCache) Stats() api.CacheStats { return c.c.Stats() }
