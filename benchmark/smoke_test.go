package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesRegistry is the drift guard: the names, units,
// directions and bounds the driver reads from BENCHMARK.json must be the
// program's own registry, entry for entry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", got.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", got.Paths)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)",
				i, got.Workloads[i].Name, got.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", got.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s registered twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload for 2 ops end to end and for 1 op
// traced, over one set-up, and holds each result to the registry: every
// named metric once, finite, with its unit, and no failed op.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			o := options{seed: 1, seconds: 120, ops: 2, trace: true}
			inst, setupS, tearDown, err := setUp(ctx, w, o, root, out)
			if err != nil {
				t.Fatal(err)
			}
			e2e, err := endToEndPass(ctx, w, inst, o, setupS, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end-to-end", e2e, endToEnd, 2)
			for _, d := range endToEnd {
				if v := e2e.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, v)
				}
			}
			o.first, o.ops = 2, 1
			traced, err := tracedPass(ctx, w, inst, o, out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "traced", traced, perLayer, 1)
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if err := tearDown(); err != nil {
				t.Error(err)
			}
			left, _ := os.ReadDir(out)
			for _, e := range left {
				if e.IsDir() {
					t.Errorf("temporary directory %s left behind", e.Name())
				}
			}
		})
	}
}

func check(t *testing.T, pass string, res *result, defs []metricDef, ops int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < ops {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", pass, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, registry has %d", pass, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %+v (present %v), want a finite value in %s", pass, d.Name, m, ok, d.Unit)
		}
	}
}
