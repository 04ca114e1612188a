package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/api"
)

// TestServerRestartServesFromDisk is the restart-warm acceptance
// scenario: kill the daemon, start a new one over the same cache dir,
// and the previously extracted model set answers with zero rebuilds —
// by key (GET) and by content (POST) — with the counters proving it.
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
	if st := srvA.Models().DiskStats(); st.Puts != 1 {
		t.Fatalf("model tier stats after first run = %+v, want 1 put", st)
	}
	srvA.Close()

	// Second daemon, same directory: the "restarted process".
	srvB, clientB := testServer(t, Options{Workers: 2, CacheDir: dir})

	// The key the first daemon handed out is a durable content address:
	// GET by key reaches the disk tier before any POST re-registers it.
	byKey, err := clientB.ModelByKey(ctx, first.Key)
	if err != nil {
		t.Fatalf("GET /v1/models/{key} after restart: %v", err)
	}
	if !byKey.Cached || !reflect.DeepEqual(byKey.ModelSet, first.ModelSet) {
		t.Fatalf("GET by key after restart: cached=%v, set identical=%v", byKey.Cached, reflect.DeepEqual(byKey.ModelSet, first.ModelSet))
	}
	if st := srvB.Models().Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("registry stats after GET by key = %+v, want 1 disk hit / 0 misses", st)
	}

	// The same set by content: served with the sweep and the fitter never
	// running — zero registry misses, and the fit-stage histogram still
	// empty afterwards. The GET above promoted it, so this is a memory hit.
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

	if st, err := clientB.Stats(ctx); err != nil {
		t.Fatal(err)
	} else if st.ModelsDisk.Hits < 1 {
		t.Fatalf("/v1/stats disk counters = %+v, want a hit on the models tier", st.ModelsDisk)
	}
}

// TestServerRestartCleansDamagedDiskEntries: damage every persisted
// entry, restart, and the daemon must rebuild correct answers, count the
// damage as dropped misses, and leave healed files behind — degraded,
// never poisoned.
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

	// Damage every cache file on disk: overwrite it with garbage.
	damaged := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		damaged++
		return os.WriteFile(path, []byte("rotten"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 1 {
		t.Fatalf("damaged %d cache files, want 1 (the persisted model set)", damaged)
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

	// The tier must have healed: a third daemon serves from disk again.
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
