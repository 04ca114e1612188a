package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden testdata snapshots")

// goldenSnapshot freezes the paper-facing outputs of one bundled app: the
// Table 2 census at the paper's model parameters, the per-function taint
// dependencies, and the dynamic cost of the taint run. Any interpreter or
// taint change that drifts these numbers fails loudly; intentional changes
// re-bless with `go test ./internal/core -run Golden -update`.
type goldenSnapshot struct {
	Census       Census              `json:"census"`
	FuncDeps     map[string][]string `json:"func_deps"`
	Instructions int64               `json:"instructions"`
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+"_golden.json")
}

func TestGoldenLULESH(t *testing.T) {
	checkGolden(t, "lulesh", getLULESH(t))
}

func TestGoldenMILC(t *testing.T) {
	checkGolden(t, "milc", getMILC(t))
}

func checkGolden(t *testing.T, name string, rep *Report) {
	t.Helper()
	got := goldenSnapshot{
		Census:       rep.Census([]string{"p", "size"}),
		FuncDeps:     rep.FuncDeps,
		Instructions: rep.Instructions,
	}
	if got.FuncDeps == nil {
		got.FuncDeps = map[string][]string{}
	}
	raw, err := json.MarshalIndent(&got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s: %v\n%s", path, err, updateHint)
	}
	if bytes.Equal(raw, want) {
		return
	}
	// Stale snapshot: summarize WHAT drifted (a handful of lines, not a
	// raw JSON dump) and say exactly how to re-bless, so a CI failure is
	// actionable from the log alone.
	var wantSnap goldenSnapshot
	if err := json.Unmarshal(want, &wantSnap); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v\n%s", path, err, updateHint)
	}
	var drift []string
	if got.Census != wantSnap.Census {
		drift = append(drift, fmt.Sprintf("census: got %+v, snapshot %+v", got.Census, wantSnap.Census))
	}
	if got.Instructions != wantSnap.Instructions {
		drift = append(drift, fmt.Sprintf("tainted-run instructions: got %d, snapshot %d",
			got.Instructions, wantSnap.Instructions))
	}
	for fn, deps := range wantSnap.FuncDeps {
		if !equalStrings(got.FuncDeps[fn], deps) {
			drift = append(drift, fmt.Sprintf("FuncDeps[%q]: got %v, snapshot %v", fn, got.FuncDeps[fn], deps))
		}
	}
	for fn := range got.FuncDeps {
		if _, ok := wantSnap.FuncDeps[fn]; !ok {
			drift = append(drift, fmt.Sprintf("FuncDeps[%q]: new function %v not in snapshot", fn, got.FuncDeps[fn]))
		}
	}
	if len(drift) == 0 {
		drift = append(drift, "snapshot differs only in JSON formatting")
	}
	sort.Strings(drift)
	t.Fatalf("golden snapshot %s is STALE (%d drift(s)):\n  %s\n%s",
		path, len(drift), strings.Join(drift, "\n  "), updateHint)
}

// updateHint is the re-bless recipe printed on every stale-snapshot
// failure: golden drift should end in one command, not archaeology.
const updateHint = `If this change is intentional, re-bless the snapshots and commit them:
    go test ./internal/core -run Golden -update
The smoke test (cmd/smoke service) and CI gate on these files, so never
hand-edit them.`

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
