package modelreg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeSet builds a minimal but schema-valid ModelSet addressed by key.
func fakeSet(key string) *ModelSet {
	return &ModelSet{
		App:          "lulesh",
		SpecDigest:   "spec",
		DesignDigest: "design",
		Key:          key,
		Params:       []string{"p", "size"},
		Metrics:      []string{"instructions"},
		Points:       4,
		Reps:         2,
		Functions: []FunctionModels{
			{Function: "main", Kind: "main", Rank: 1},
		},
	}
}

func regKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

// TestRegistryDiskRoundTrip is the restart contract for the model tier:
// a second registry (a restarted process) over the same directory must
// serve the persisted set with ZERO rebuilds — the build closure must
// never run — and count the serve as a disk hit, not a miss.
func TestRegistryDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := regKey("round-trip")

	openReg := func() *Registry {
		t.Helper()
		layer, err := OpenDiskLayer(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistry(4)
		r.SetDisk(layer)
		return r
	}

	r1 := openReg()
	builds := 0
	ms, cached, err := r1.Get(key, func() (*ModelSet, error) {
		builds++
		return fakeSet(key), nil
	})
	if err != nil || cached || ms == nil {
		t.Fatalf("first Get = %v, cached=%v, err=%v; want built set", ms, cached, err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if st := r1.DiskStats(); st.Puts != 1 {
		t.Fatalf("disk stats after build = %+v, want 1 put", st)
	}

	// "Restart": a fresh registry over the same directory.
	r2 := openReg()
	ms2, cached2, err := r2.Get(key, func() (*ModelSet, error) {
		t.Fatal("build ran despite a warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Fatal("disk-served set not reported as cached")
	}
	if ms2.Key != key || len(ms2.Functions) != 1 || ms2.Functions[0].Function != "main" {
		t.Fatalf("disk-served set drifted: %+v", ms2)
	}
	st := r2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("registry stats = %+v, want 1 disk hit and 0 misses", st)
	}
	// The set is now resident: a third Get is a pure memory hit.
	if _, cached3, _ := r2.Get(key, func() (*ModelSet, error) {
		t.Fatal("build ran for a resident set")
		return nil, nil
	}); !cached3 {
		t.Fatal("resident set not served from memory")
	}
}

// TestRegistryDiskRejectsMismatchedKey covers the codec's address check:
// a persisted set whose embedded Key disagrees with the file name (a
// rename, a copy, a collision) must be dropped and rebuilt, never served.
func TestRegistryDiskRejectsMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	layer, err := OpenDiskLayer(dir)
	if err != nil {
		t.Fatal(err)
	}
	right := regKey("right")
	wrong := regKey("wrong")
	layer.Put(right, fakeSet(right))

	// Simulate the rename at the store level: find the file and move it.
	var stored string
	root := filepath.Join(dir, sanitizeProbe(t, dir))
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == right {
			stored = filepath.Join(root, e.Name())
		}
	}
	if stored == "" {
		t.Fatalf("persisted entry %s not found under %s", right, root)
	}
	if err := os.Rename(stored, filepath.Join(root, wrong)); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(4)
	r.SetDisk(layer)
	builds := 0
	ms, _, err := r.Get(wrong, func() (*ModelSet, error) {
		builds++
		return fakeSet(wrong), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (mismatched entry must not be served)", builds)
	}
	if ms.Key != wrong {
		t.Fatalf("served set carries key %s, want %s", ms.Key, wrong)
	}
	if _, err := os.Stat(filepath.Join(root, wrong)); err == nil {
		// The rebuild re-persists under the same name; what matters is the
		// content now decodes to the right key.
		raw, rerr := os.ReadFile(filepath.Join(root, wrong))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !json.Valid(trimHeader(raw)) {
			t.Fatal("re-persisted entry is not valid JSON")
		}
	}
}

// sanitizeProbe finds the single versioned subdirectory OpenDiskLayer
// created under dir, so tests do not hard-code the version string.
func sanitizeProbe(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !ents[0].IsDir() {
		t.Fatalf("expected exactly one versioned root under %s, got %v", dir, ents)
	}
	return ents[0].Name()
}

// trimHeader strips the diskcache file header (three lines) off raw.
func trimHeader(raw []byte) []byte {
	rest := raw
	for i := 0; i < 3; i++ {
		for j, b := range rest {
			if b == '\n' {
				rest = rest[j+1:]
				break
			}
		}
	}
	return rest
}

// TestSetCodecRejectsEmptySets guards against persisting (or serving) a
// vacuous artifact: an empty Functions list decodes to an error.
func TestSetCodecRejectsEmptySets(t *testing.T) {
	key := regKey("empty")
	ms := fakeSet(key)
	ms.Functions = nil
	raw, err := encodeSet(ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSet(key, raw); err == nil {
		t.Fatal("empty set decoded without error")
	}
	if _, err := decodeSet(key, []byte("{garbage")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
