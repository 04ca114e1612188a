package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/taint"
)

// engineDump renders the complete dynamic taint state of a report
// deterministically. Labels are compared by their base-parameter masks (the
// semantic identity of a label); raw table ids may differ because the fast
// engine's merged control scopes can materialize different intermediate
// labels in the union table.
func engineDump(r *Report) string {
	e := r.Engine
	var sb strings.Builder
	mask := func(l taint.Label) uint64 { return uint64(l) }
	fmt.Fprintf(&sb, "instr=%d base=%d\n", r.Instructions, e.Table.NumBase())
	for _, rec := range e.SortedLoops() {
		fmt.Fprintf(&sb, "loop %s#%d@%d path=%s labels=%x iter=%d entries=%d\n",
			rec.Key.Func, rec.Key.LoopID, rec.Header, rec.Key.CallPath,
			mask(rec.Labels), rec.Iterations, rec.Entries)
	}
	branches := make([]*taint.BranchRecord, 0, len(e.Branches))
	for _, rec := range e.Branches {
		branches = append(branches, rec)
	}
	sort.Slice(branches, func(i, j int) bool {
		if branches[i].Key.Func != branches[j].Key.Func {
			return branches[i].Key.Func < branches[j].Key.Func
		}
		return branches[i].Key.Block < branches[j].Key.Block
	})
	for _, rec := range branches {
		fmt.Fprintf(&sb, "branch %s@%d labels=%x taken=%d nottaken=%d exit=%v\n",
			rec.Key.Func, rec.Key.Block, mask(rec.Labels), rec.Taken, rec.NotTaken, rec.IsLoopExit)
	}
	libs := make([]*taint.LibCallRecord, 0, len(e.LibCalls))
	for _, rec := range e.LibCalls {
		libs = append(libs, rec)
	}
	sort.Slice(libs, func(i, j int) bool {
		a, b := libs[i].Key, libs[j].Key
		if a.CallPath != b.CallPath {
			return a.CallPath < b.CallPath
		}
		return a.Callee < b.Callee
	})
	for _, rec := range libs {
		fmt.Fprintf(&sb, "libcall %s->%s path=%s labels=%x count=%d\n",
			rec.Key.Caller, rec.Key.Callee, rec.Key.CallPath, mask(rec.Labels), rec.Count)
	}
	return sb.String()
}

// TestDifferentialBundledApps runs the full pipeline on both bundled
// applications under the fast and reference engines and requires identical
// reports: instruction counts, every taint record, the aggregated
// dependency maps, and the paper-facing census.
func TestDifferentialBundledApps(t *testing.T) {
	cases := []struct {
		name string
		spec *apps.Spec
		cfg  apps.Config
	}{
		{"lulesh", apps.LULESH(), apps.LULESHTaintConfig()},
		{"milc", apps.MILC(), apps.MILCTaintConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Prepare(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := p.Analyze(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Mode = interp.ModeReference
			ref, err := p.Analyze(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Instructions != ref.Instructions {
				t.Errorf("instructions: fast %d, reference %d", fast.Instructions, ref.Instructions)
			}
			if fd, rd := engineDump(fast), engineDump(ref); fd != rd {
				t.Fatalf("taint state diverged:\n--- reference ---\n%s\n--- fast ---\n%s", rd, fd)
			}
			for _, m := range []struct {
				name      string
				fast, ref map[string][]string
			}{
				{"FuncDeps", fast.FuncDeps, ref.FuncDeps},
				{"LoopDeps", fast.LoopDeps, ref.LoopDeps},
				{"LibDeps", fast.LibDeps, ref.LibDeps},
			} {
				if !reflect.DeepEqual(m.fast, m.ref) {
					t.Errorf("%s diverged:\nfast: %v\nreference: %v", m.name, m.fast, m.ref)
				}
			}
			if !reflect.DeepEqual(fast.Relevant, ref.Relevant) {
				t.Errorf("Relevant diverged")
			}
			fc := fast.Census([]string{"p", "size"})
			rc := ref.Census([]string{"p", "size"})
			if fc != rc {
				t.Errorf("census diverged:\nfast: %+v\nreference: %+v", fc, rc)
			}
		})
	}
}

// TestDifferentialSummariesFire pins the fast engine's call and loop
// summaries on the paper's two case-study codes: the accessor functions the
// specs model after C++ getters are where one call in nine goes, and the
// innermost counted loops around straight-line work are where all but a
// thousandth of a large configuration's instructions go, so a generator,
// scev or predecode change that stops either from being summarized (or a
// summary that charges anything but what dispatching would) must fail here,
// not in a benchmark.
func TestDifferentialSummariesFire(t *testing.T) {
	var lulesh *Prepared
	for _, tc := range []struct {
		spec                *apps.Spec
		funcs, least, loops int
	}{
		{apps.LULESH(), 349, 249, 268},
		{apps.MILC(), 621, 316, 863},
	} {
		p, err := Prepare(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Program.NumFuncs(); got != tc.funcs {
			t.Errorf("%s: %d functions, want %d", tc.spec.Name, got, tc.funcs)
		}
		if got := p.Program.NumSummarized(); got < tc.least {
			t.Errorf("%s: %d functions summarized, want at least %d", tc.spec.Name, got, tc.least)
		}
		if got := p.Program.NumLoopSummaries(); got != tc.loops {
			t.Errorf("%s: %d loops summarized, want %d", tc.spec.Name, got, tc.loops)
		}
		if lulesh == nil {
			lulesh = p
		}
	}

	raw, err := os.ReadFile(goldenPath("lulesh"))
	if err != nil {
		t.Fatal(err)
	}
	var golden goldenSnapshot
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.Instructions != 259170 {
		t.Fatalf("lulesh golden pins %d instructions: it was regenerated", golden.Instructions)
	}
	// The taint configuration, and the largest design point of the
	// benchmark's lulesh-large workload.
	large := apps.Config{}
	for k, v := range apps.LULESHTaintConfig() {
		large[k] = v
	}
	large["p"], large["size"] = 16, 17
	for _, tc := range []struct {
		cfg          apps.Config
		instructions int64
		share        float64
	}{
		{apps.LULESHTaintConfig(), golden.Instructions, 0.9},
		{large, 8801602, 0.99},
	} {
		_, res, err := lulesh.run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instructions != tc.instructions {
			t.Errorf("LULESH %v charges %d instructions with summaries, want %d", tc.cfg, res.Instructions, tc.instructions)
		}
		if share := float64(res.Summarized) / float64(res.Instructions); share < tc.share {
			t.Errorf("LULESH %v: %d of %d instructions summarized (%.3f), want at least %.2f", tc.cfg, res.Summarized, res.Instructions, share, tc.share)
		}
	}
}
