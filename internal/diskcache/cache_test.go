package diskcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// builder counts builds of the value whose content address is key.
type builder struct{ n atomic.Int64 }

func (b *builder) of(v string) func() (string, error) {
	return func() (string, error) { b.n.Add(1); return v, nil }
}

// resident lists a cache's completed keys, most recently used first.
func resident[V any](c *Cache[V]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry[V]).key)
	}
	return out
}

// awaitJoiners blocks a build until n other Gets have joined its flight
// (joiners are counted as hits before they park), so the contract cases
// exercise the in-flight path rather than a late memory hit.
func awaitJoiners[V any](t *testing.T, c *Cache[V], n uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Hits < n {
		if time.Now().After(deadline) {
			t.Errorf("only %d of %d joiners arrived", c.Stats().Hits, n)
			return
		}
		runtime.Gosched()
	}
}

// awaitInflight blocks until a Get of key has started its flight.
func awaitInflight[V any](t *testing.T, c *Cache[V], key string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.inflight[key]
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no build of %s started", key)
		}
		runtime.Gosched()
	}
}

// TestCacheContract is the one behavioural contract of the daemon's one
// cache, run against both shapes it is instantiated in: memory-only (the
// PreparedCache) and disk-backed (the model registry). open returns a
// fresh cache per call; in the disk instantiation every cache of one
// case shares a directory, so a second open is a restarted process.
func TestCacheContract(t *testing.T) {
	const joiners = 16
	cases := []struct {
		name string
		run  func(t *testing.T, open func(capacity int) *Cache[string], disk bool)
	}{
		{"singleflight", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(4)
			var b builder
			var wg sync.WaitGroup
			got := make([]string, joiners)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, _, err := c.Get(digestOf("shared"), func() (string, error) {
						awaitJoiners(t, c, joiners-1)
						return b.of("shared")()
					})
					if err != nil {
						t.Error(err)
					}
					got[i] = v
				}()
			}
			wg.Wait()
			if n := b.n.Load(); n != 1 {
				t.Fatalf("concurrent Gets built %d times, want exactly 1", n)
			}
			for i, v := range got {
				if v != "shared" {
					t.Fatalf("goroutine %d got %q", i, v)
				}
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != joiners-1 || st.Entries != 1 {
				t.Fatalf("stats = %+v, want 1 miss (one build), %d hits (joined flights), 1 entry", st, joiners-1)
			}
		}},
		{"lru_eviction", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(2)
			var b builder
			k := []string{digestOf("v0"), digestOf("v1"), digestOf("v2")}
			c.Get(k[0], b.of("v0"))
			c.Get(k[1], b.of("v1"))
			// Touch v0 so v1 becomes least recently used; inserting v2 must
			// then evict v1, not the freshly touched v0.
			if _, cached, _ := c.Get(k[0], b.of("v0")); !cached {
				t.Fatal("resident entry not served from memory")
			}
			c.Get(k[2], b.of("v2"))
			if got, want := resident(c), []string{k[2], k[0]}; !reflect.DeepEqual(got, want) {
				t.Fatalf("recency order = %v, want %v", got, want)
			}
			if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Hits != 1 || st.Misses != 3 {
				t.Fatalf("stats = %+v, want 1 eviction, 2 entries, 1 hit, 3 misses", st)
			}
			// The evicted key comes back from the tier below memory: the
			// disk when there is one, else a rebuild.
			_, cached, err := c.Get(k[1], b.of("v1"))
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if disk && (!cached || b.n.Load() != 3 || st.DiskHits != 1 || st.Misses != 3) {
				t.Fatalf("evicted key: cached=%v builds=%d stats=%+v, want a disk hit and no build", cached, b.n.Load(), st)
			}
			if !disk && (cached || b.n.Load() != 4 || st.Misses != 4) {
				t.Fatalf("evicted key: cached=%v builds=%d stats=%+v, want a rebuild", cached, b.n.Load(), st)
			}
		}},
		{"error_not_cached", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(4)
			boom := errors.New("transient build failure")
			var wg sync.WaitGroup
			for i := 0; i < joiners; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _, err := c.Get(digestOf("flaky"), func() (string, error) {
						awaitJoiners(t, c, joiners-1)
						return "", boom
					})
					if !errors.Is(err, boom) {
						t.Errorf("joiner of a failed build got err = %v", err)
					}
				}()
			}
			wg.Wait()
			if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want the failed build counted as 1 miss and not cached", st)
			}
			var b builder
			if v, cached, err := c.Get(digestOf("flaky"), b.of("flaky")); err != nil || cached || v != "flaky" || b.n.Load() != 1 {
				t.Fatalf("retry after failure = %q, cached=%v, err=%v, builds=%d; want a fresh build", v, cached, err, b.n.Load())
			}
		}},
		{"panic_releases_flight", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(4)
			key := digestOf("explosive")
			var panics, typed atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < joiners; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							panics.Add(1)
						}
					}()
					_, _, err := c.Get(key, func() (string, error) {
						awaitJoiners(t, c, joiners-1)
						panic("build blew up")
					})
					var bp *BuildPanicError
					if errors.As(err, &bp) && bp.Key == key {
						typed.Add(1)
					} else {
						t.Errorf("joiner of a panicked build got err = %v", err)
					}
				}()
			}
			wg.Wait()
			if panics.Load() != 1 || typed.Load() != joiners-1 {
				t.Fatalf("%d goroutines saw the panic and %d a BuildPanicError, want 1 and %d",
					panics.Load(), typed.Load(), joiners-1)
			}
			if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want the panicked build counted as 1 miss and not cached", st)
			}
			var b builder
			if v, cached, err := c.Get(key, b.of("explosive")); err != nil || cached || v != "explosive" || b.n.Load() != 1 {
				t.Fatalf("Get after a panicked build = %q, cached=%v, err=%v, builds=%d; want a fresh build", v, cached, err, b.n.Load())
			}
		}},
		{"joiner_cancelled_mid_build", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(4)
			key := digestOf("slow")
			var b builder
			release := make(chan struct{})
			built := make(chan error, 1)
			go func() {
				// The builder's own context is already over: a started build
				// is not interrupted by it.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, _, err := c.GetContext(ctx, key, func() (string, error) {
					<-release
					return b.of("slow")()
				})
				built <- err
			}()
			awaitInflight(t, c, key)
			ctx, cancel := context.WithCancel(context.Background())
			joined := make(chan error, 1)
			go func() {
				_, _, err := c.GetContext(ctx, key, b.of("never"))
				joined <- err
			}()
			awaitJoiners(t, c, 1)
			cancel()
			// The joiner returns while the build is still held open.
			if err := <-joined; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled joiner got err = %v, want context.Canceled", err)
			}
			close(release)
			if err := <-built; err != nil {
				t.Fatalf("the build a joiner walked away from failed: %v", err)
			}
			v, cached, err := c.Get(key, b.of("never"))
			if err != nil || !cached || v != "slow" || b.n.Load() != 1 {
				t.Fatalf("Get after the build = %q, cached=%v, err=%v, builds=%d; want the one build's value from memory", v, cached, err, b.n.Load())
			}
			if st := c.Stats(); st.Misses != 1 || st.Entries != 1 || st.Hits != 2 {
				t.Fatalf("stats = %+v, want 1 miss, 1 entry, 2 hits (the join and the later Get)", st)
			}
		}},
		{"restart", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			var b builder
			key := digestOf("durable")
			if _, cached, err := open(4).Get(key, b.of("durable")); err != nil || cached {
				t.Fatalf("first Get: cached=%v err=%v", cached, err)
			}
			c := open(4)
			v, cached, err := c.Get(key, b.of("durable"))
			if err != nil || v != "durable" {
				t.Fatalf("Get after restart = %q, %v", v, err)
			}
			st := c.Stats()
			if disk && (!cached || b.n.Load() != 1 || st.DiskHits != 1 || st.Misses != 0) {
				t.Fatalf("cached=%v builds=%d stats=%+v, want 1 disk hit, 0 misses, no second build", cached, b.n.Load(), st)
			}
			if !disk && (cached || b.n.Load() != 2 || st.DiskHits != 0 || st.Misses != 1) {
				t.Fatalf("cached=%v builds=%d stats=%+v, want a rebuild (memory does not survive)", cached, b.n.Load(), st)
			}
			// Either way the value is resident now: a pure memory hit.
			if _, cached, _ := c.Get(key, b.of("durable")); !cached || c.Stats().Hits != 1 {
				t.Fatalf("resident value not served from memory (stats %+v)", c.Stats())
			}
		}},
		{"lookup_never_builds", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			c := open(4)
			key := digestOf("looked-up")
			if _, ok := c.Lookup(key); ok {
				t.Fatal("Lookup found a key nobody built")
			}
			if st := c.Stats(); st != (CacheStats{Capacity: 4}) {
				t.Fatalf("stats after an absent Lookup = %+v, want all counters zero", st)
			}
			var b builder
			c.Get(key, b.of("looked-up"))
			before := c.Stats()
			if v, ok := c.Lookup(key); !ok || v != "looked-up" {
				t.Fatalf("Lookup of a resident key = %q, %v", v, ok)
			}
			if st := c.Stats(); st != before {
				t.Fatalf("a memory Lookup moved the counters: %+v -> %+v", before, st)
			}
			// From a restarted process the same walk reaches the disk tier
			// (a disk hit, promoted into the LRU) — or, without one, finds
			// nothing. It never builds and never counts a miss.
			r := open(4)
			v, ok := r.Lookup(key)
			want := CacheStats{Capacity: 4}
			if disk {
				want.DiskHits, want.Entries = 1, 1
			}
			if ok != disk || (ok && v != "looked-up") || r.Stats() != want {
				t.Fatalf("Lookup after restart = %q, %v, stats %+v; want found=%v, stats %+v", v, ok, r.Stats(), disk, want)
			}
		}},
		{"misfiled_payload", func(t *testing.T, open func(int) *Cache[string], disk bool) {
			if !disk {
				t.Skip("no tier beneath memory to misfile a payload on")
			}
			// A disk payload that verifies at the store level but does not
			// denote the key it is filed under (a rename, a copy) is deleted,
			// counted as dropped, and rebuilt — never served.
			var b builder
			right, wrong := digestOf("right"), digestOf("wrong")
			warm := open(4)
			warm.Get(right, b.of("right"))
			root := warm.disk.store.Root()
			if err := os.Rename(filepath.Join(root, right), filepath.Join(root, wrong)); err != nil {
				t.Fatal(err)
			}
			c := open(4)
			if v, ok := c.Lookup(wrong); ok {
				t.Fatalf("Lookup served the misfiled payload %q", v)
			}
			if _, err := os.Stat(filepath.Join(root, wrong)); !os.IsNotExist(err) {
				t.Fatalf("misfiled entry not deleted (stat err = %v)", err)
			}
			v, cached, err := c.Get(wrong, b.of("wrong"))
			if err != nil || cached || v != "wrong" || b.n.Load() != 2 {
				t.Fatalf("Get = %q, cached=%v, err=%v, builds=%d; want a rebuild", v, cached, err, b.n.Load())
			}
			if st := c.Stats(); st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want 0 disk hits / 1 miss", st)
			}
			if ds := c.DiskStats(); ds.Dropped != 1 {
				t.Fatalf("disk stats = %+v, want exactly 1 dropped", ds)
			}
			// The rebuild re-persisted a payload that does denote the key.
			if v, ok := open(4).Lookup(wrong); !ok || v != "wrong" {
				t.Fatalf("healed entry Lookup = %q, %v", v, ok)
			}
		}},
	}
	for _, inst := range []struct {
		name string
		disk bool
	}{{"memory", false}, {"disk", true}} {
		t.Run(inst.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					dir := t.TempDir()
					tc.run(t, func(capacity int) *Cache[string] {
						c := NewCache[string](capacity)
						if inst.disk {
							st, err := Open(dir, "v1")
							if err != nil {
								t.Fatal(err)
							}
							c.SetDisk(stringLayer(st))
						}
						return c
					}, inst.disk)
				})
			}
		})
	}
}
