package appgen

import (
	"context"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

var update = flag.Bool("update", false, "re-bless the golden corpus manifest")

const corpusManifest = "testdata/corpus_v1.json"

// TestGoldenCorpus rebuilds the full validation corpus and checks it
// against the blessed manifest: same entry set, identical analytic
// dependency truth, and recovery scores above the manifest thresholds.
// Re-bless after intentional generator or analysis changes with
//
//	go test ./internal/appgen -run TestGoldenCorpus -update
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus rebuild is not a -short test")
	}
	built, err := BuildCorpus(context.Background(), runner.New())
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}
	path := filepath.FromSlash(corpusManifest)
	if *update {
		if err := SaveCorpus(path, built); err != nil {
			t.Fatalf("SaveCorpus: %v", err)
		}
		t.Logf("re-blessed %s with %d entries", path, len(built.Entries))
		return
	}
	manifest, err := LoadCorpus(path)
	if err != nil {
		t.Fatalf("LoadCorpus (run with -update to bless): %v", err)
	}
	if n := len(manifest.Entries); n < 20 {
		t.Errorf("manifest has %d entries, want >= 20", n)
	}
	archs := make(map[Archetype]bool)
	for _, e := range manifest.Entries {
		archs[e.Archetype] = true
	}
	if len(archs) < 4 {
		t.Errorf("manifest spans %d archetypes, want >= 4", len(archs))
	}
	for _, v := range manifest.Check(built) {
		t.Error(v)
	}
}
