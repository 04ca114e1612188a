package service

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// maxTrackedClients bounds the limiter's bucket map: past it, buckets
// that have fully refilled (indistinguishable from brand-new ones) are
// swept, so an address-spraying client cannot grow daemon memory without
// bound.
const maxTrackedClients = 4096

// rateLimiter is per-client token-bucket admission control in front of
// the scheduler. Each client key (X-Client-ID header, else the remote
// host) owns a bucket holding up to burst tokens refilled at rate
// tokens/second;
// submitting one analysis costs one token and a sweep costs one token
// per design point (capped at burst so a legal large design drains the
// bucket instead of being unreachable forever). An exhausted bucket
// answers 429 with a Retry-After telling the client exactly when the
// tokens it needs will exist. A nil *rateLimiter admits everything.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	// now is the clock; tests substitute it.
	now func() time.Time
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter returns a limiter admitting rate tokens/second with
// capacity max(1, 2*rate) per client, or nil (admit everything) when
// rate <= 0.
func newRateLimiter(rate float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	return &rateLimiter{
		rate:    rate,
		burst:   math.Max(1, 2*rate),
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
}

// allowN takes n tokens from key's bucket. When the bucket cannot cover
// the charge it is left untouched and the second return value says how
// long until it could. Charges above the bucket capacity are clamped to
// it, so a request the server's own design cap admits is never starved
// in perpetuity by the limiter.
func (l *rateLimiter) allowN(key string, n float64) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	if n > l.burst {
		n = l.burst
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxTrackedClients {
			l.sweepLocked(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((n - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// sweepLocked drops buckets that have refilled to capacity — removing
// one is observationally identical to keeping it. Caller holds mu.
func (l *rateLimiter) sweepLocked(now time.Time) {
	for key, b := range l.buckets {
		if math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate) >= l.burst {
			delete(l.buckets, key)
		}
	}
}

// clients reports the number of tracked buckets.
func (l *rateLimiter) clients() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// ClientIDHeader names the optional request header that identifies a
// client for admission control; without it the remote host is the key,
// so all connections from one address share one bucket.
const ClientIDHeader = "X-Client-ID"

// clientKey derives the admission-control key for a request.
func clientKey(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return "id:" + id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}
