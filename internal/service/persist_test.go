package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
)

// TestServerRestartServesFromDisk is the PR's acceptance scenario: kill
// the daemon, start a new one over the same cache dir, and the
// previously extracted model set answers with zero rebuilds while the
// previously prepared spec is classified as a disk hit (one lazy
// rebuild, no stampede, not a miss) — with the counters proving both.
func TestServerRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// First daemon: pay the cold cost once.
	srvA, clientA := testServer(t, Options{Workers: 2, CacheDir: dir})
	if _, err := clientA.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		t.Fatal(err)
	}
	first, err := clientA.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st := srvA.Cache().DiskStats(); st.Puts != 1 {
		t.Fatalf("prepared tier stats after first run = %+v, want 1 put", st)
	}
	if st := srvA.Models().DiskStats(); st.Puts != 1 {
		t.Fatalf("model tier stats after first run = %+v, want 1 put", st)
	}
	srvA.Close()

	// Second daemon, same directory: the "restarted process".
	srvB, clientB := testServer(t, Options{Workers: 2, CacheDir: dir})

	// The model set must be served from disk with the sweep and the
	// fitter never running: zero registry misses, and the fit-stage
	// histogram still empty afterwards.
	again, err := clientB.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("restarted daemon rebuilt the model set instead of serving disk")
	}
	if !reflect.DeepEqual(again.ModelSet, first.ModelSet) {
		t.Fatal("disk-served model set differs from the original extraction")
	}
	if st := srvB.Models().Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("registry stats after restart = %+v, want 1 disk hit / 0 misses", st)
	}
	if n := srvB.metrics.Stage(StageFit).Snapshot().Count; n != 0 {
		t.Fatalf("fit histogram count = %d after a disk-served set, want 0", n)
	}

	// The prepared spec was already rebuilt lazily for the models call
	// above (resolve goes through the cache) and must be classified as a
	// disk hit, never a miss.
	if _, err := clientB.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		t.Fatal(err)
	}
	if st := srvB.Cache().Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("prepared cache stats after restart = %+v, want 1 disk hit / 0 misses", st)
	}
	if st, err := clientB.Stats(ctx); err != nil {
		t.Fatal(err)
	} else if st.CacheDisk.Hits < 1 || st.ModelsDisk.Hits < 1 {
		t.Fatalf("/v1/stats disk counters = %+v / %+v, want hits on both tiers", st.CacheDisk, st.ModelsDisk)
	}
}

// TestServerRestartCleansDamagedDiskEntries: damage every persisted
// entry (truncate one tier, garbage the other), restart, and the daemon
// must rebuild correct answers, count the damage as dropped misses, and
// leave healed files behind — degraded, never poisoned.
func TestServerRestartCleansDamagedDiskEntries(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srvA, clientA := testServer(t, Options{Workers: 2, CacheDir: dir})
	if _, err := clientA.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		t.Fatal(err)
	}
	first, err := clientA.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	// Damage every cache file on disk: truncate the prepared entries,
	// overwrite the model entries with garbage.
	damaged := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		damaged++
		if filepath.Base(filepath.Dir(filepath.Dir(path))) == "prepared" {
			raw, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			return os.WriteFile(path, raw[:len(raw)/2], 0o644)
		}
		return os.WriteFile(path, []byte("rotten"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 2 {
		t.Fatalf("damaged %d cache files, want 2 (one per tier)", damaged)
	}

	srvB, clientB := testServer(t, Options{Workers: 2, CacheDir: dir})
	again, err := clientB.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("damaged model entry served as a cache hit")
	}
	if !reflect.DeepEqual(again.ModelSet, first.ModelSet) {
		t.Fatal("rebuild after damage produced a different model set")
	}
	if st := srvB.Models().Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("registry stats = %+v, want the damaged entry counted as a miss", st)
	}
	if st := srvB.Models().DiskStats(); st.Dropped != 1 {
		t.Fatalf("model tier stats = %+v, want 1 dropped", st)
	}
	if st := srvB.Cache().Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("prepared cache stats = %+v, want the truncated entry counted as a miss", st)
	}
	if st := srvB.Cache().DiskStats(); st.Dropped != 1 {
		t.Fatalf("prepared tier stats = %+v, want 1 dropped", st)
	}

	// Both tiers must have healed: a third daemon serves from disk again.
	srvB.Close()
	srvC, clientC := testServer(t, Options{Workers: 2, CacheDir: dir})
	healed, err := clientC.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !healed.Cached {
		t.Fatal("cache did not heal after the damaged entries were rebuilt")
	}
	if st := srvC.Models().Stats(); st.DiskHits != 1 {
		t.Fatalf("healed registry stats = %+v, want 1 disk hit", st)
	}
}

// TestPreparedCacheDiskSingleflight: concurrent requests for a digest
// that is warm on disk share ONE rebuild (the singleflight), and the
// whole burst counts as one disk hit plus joiner memory hits.
func TestPreparedCacheDiskSingleflight(t *testing.T) {
	dir := t.TempDir()
	spec := apps.LULESH()

	prepared, _, err := openDiskTiers(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewPreparedCache(4)
	warm.SetDisk(prepared)
	if _, _, err := warm.Get(spec); err != nil {
		t.Fatal(err)
	}

	// Restarted cache over the same tier, with an instrumented builder.
	prepared2, _, err := openDiskTiers(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPreparedCache(4)
	c.SetDisk(prepared2)
	var mu sync.Mutex
	builds := 0
	c.prepare = func(s *apps.Spec) (*core.Prepared, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return core.Prepare(s)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Get(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight over the disk-hit rebuild)", builds)
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit, 0 misses", st)
	}
	if st.Hits != 7 {
		t.Fatalf("stats = %+v, want 7 joiner hits", st)
	}
}
