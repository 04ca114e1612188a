package runner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
)

// summarize renders every deterministic projection of a report so batch
// and sequential results can be compared byte for byte.
func summarize(rep *core.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "spec=%s instructions=%d\n", rep.Spec.Name, rep.Instructions)
	dumpDeps := func(tag string, m map[string][]string) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s=%v\n", tag, k, m[k])
		}
	}
	dumpDeps("loop", rep.LoopDeps)
	dumpDeps("lib", rep.LibDeps)
	dumpDeps("func", rep.FuncDeps)
	var rel []string
	for fn := range rep.Relevant {
		rel = append(rel, fn)
	}
	sort.Strings(rel)
	fmt.Fprintf(&sb, "relevant=%v\n", rel)
	fmt.Fprintf(&sb, "census=%+v\n", rep.Census([]string{"p", "size"}))
	var fns []string
	for fn := range rep.Volumes.StructByFunc {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Fprintf(&sb, "struct %s=%s\n", fn, rep.Volumes.StructByFunc[fn])
	}
	return sb.String()
}

func luleshConfigs() []apps.Config {
	base := apps.LULESHTaintConfig()
	var out []apps.Config
	for _, p := range []float64{2, 4, 8, 16} {
		cfg := base.Clone()
		cfg["p"] = p
		out = append(out, cfg)
	}
	return out
}

func TestBatchMatchesSequential(t *testing.T) {
	spec := apps.LULESH()
	cfgs := luleshConfigs()

	var want []string
	for _, cfg := range cfgs {
		rep, err := core.Analyze(spec, cfg)
		if err != nil {
			t.Fatalf("sequential Analyze: %v", err)
		}
		want = append(want, summarize(rep))
	}

	res, err := (&Runner{Workers: 4}).AnalyzeBatch(spec, cfgs)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(res) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(res), len(cfgs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if got := summarize(r.Report); got != want[i] {
			t.Errorf("job %d: batch report differs from sequential:\n--- batch ---\n%s--- sequential ---\n%s", i, got, want[i])
		}
	}
}

func TestBatchSharesPreparation(t *testing.T) {
	res, err := New().AnalyzeBatch(apps.LULESH(), luleshConfigs())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		// All reports must reference the artifacts of the single Prepare
		// call: same module, same static classification.
		if r.Report.Module != res[0].Report.Module {
			t.Errorf("job %d rebuilt the module", i)
		}
		if fmt.Sprintf("%p", r.Report.Static) != fmt.Sprintf("%p", res[0].Report.Static) {
			t.Errorf("job %d re-ran the static pass", i)
		}
	}
}

// TestBatchDifferentialEngines fans the same sweep out under the fast and
// reference interpreters (one shared predecoded Program each way) and
// requires byte-identical reports, covering the concurrent path of the
// fast engine.
func TestBatchDifferentialEngines(t *testing.T) {
	spec := apps.LULESH()
	cfgs := luleshConfigs()

	pFast, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pFast.Program == nil {
		t.Fatal("Prepare did not predecode the module")
	}
	pRef, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	pRef.Mode = interp.ModeReference

	r := &Runner{Workers: 4}
	fast := r.AnalyzeBatchPrepared(pFast, cfgs)
	ref := r.AnalyzeBatchPrepared(pRef, cfgs)
	for i := range cfgs {
		if fast[i].Err != nil || ref[i].Err != nil {
			t.Fatalf("config %d: fast %v, reference %v", i, fast[i].Err, ref[i].Err)
		}
		if got, want := summarize(fast[i].Report), summarize(ref[i].Report); got != want {
			t.Errorf("config %d: engines diverged:\n--- fast ---\n%s--- reference ---\n%s", i, got, want)
		}
	}
}

func TestDeterministicOrdering(t *testing.T) {
	spec := apps.LULESH()
	cfgs := luleshConfigs()
	first, err := (&Runner{Workers: 8}).AnalyzeBatch(spec, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&Runner{Workers: 2}).AnalyzeBatch(spec, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if first[i].Index != i || second[i].Index != i {
			t.Fatalf("result %d out of order: %d vs %d", i, first[i].Index, second[i].Index)
		}
		if first[i].Config["p"] != cfgs[i]["p"] {
			t.Fatalf("result %d carries config p=%v, want %v", i, first[i].Config["p"], cfgs[i]["p"])
		}
		if summarize(first[i].Report) != summarize(second[i].Report) {
			t.Errorf("result %d differs across worker counts", i)
		}
	}
}

func TestErrorCapture(t *testing.T) {
	spec := apps.LULESH()
	good := apps.LULESHTaintConfig()
	bad := good.Clone()
	delete(bad, "p") // the dynamic stage requires the implicit parameter
	cfgs := []apps.Config{good, bad, good.Clone()}

	res, err := New().AnalyzeBatch(spec, cfgs)
	if err != nil {
		t.Fatalf("batch-level error for a per-job failure: %v", err)
	}
	if res[1].Err == nil {
		t.Fatal("job 1 should have failed (missing p)")
	}
	if res[1].Report != nil {
		t.Fatal("failed job should not carry a report")
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].Report == nil {
			t.Fatalf("job %d should have succeeded: %v", i, res[i].Err)
		}
	}
}

func TestDesignConfigs(t *testing.T) {
	d := Design{
		Defaults: apps.Config{"iters": 1},
		Axes: []Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{5, 6, 7}},
		},
	}
	cfgs := d.Configs()
	if len(cfgs) != 6 {
		t.Fatalf("got %d configs, want 6", len(cfgs))
	}
	// Row-major, last axis fastest, defaults preserved.
	want := []struct{ p, size float64 }{
		{2, 5}, {2, 6}, {2, 7}, {4, 5}, {4, 6}, {4, 7},
	}
	for i, w := range want {
		if cfgs[i]["p"] != w.p || cfgs[i]["size"] != w.size || cfgs[i]["iters"] != 1 {
			t.Fatalf("config %d = %v, want p=%g size=%g iters=1", i, cfgs[i], w.p, w.size)
		}
	}
}

func TestSweep(t *testing.T) {
	base := apps.LULESHTaintConfig()
	d := Design{
		Spec:     apps.LULESH(),
		Defaults: base,
		Axes: []Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
	}
	res, err := New().Sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	cfgs := d.Configs()
	for i := range res {
		if res[i].Err != nil {
			t.Fatal(res[i].Err)
		}
		if res[i].Report.Spec.Name != apps.LULESH().Name {
			t.Fatalf("result %d analyzed %s", i, res[i].Report.Spec.Name)
		}
		if res[i].Config["p"] != cfgs[i]["p"] || res[i].Config["size"] != cfgs[i]["size"] {
			t.Fatalf("result %d out of design order", i)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	Map(4, 0, func(int) { t.Fatal("job ran for n=0") })

	n := 100
	seen := make([]int, n)
	Map(16, n, func(i int) { seen[i]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}

	// workers <= 0 falls back to GOMAXPROCS; workers > n is clamped.
	ran := make([]bool, 3)
	Map(-1, 3, func(i int) { ran[i] = true })
	for i, ok := range ran {
		if !ok {
			t.Fatalf("index %d never ran with default workers", i)
		}
	}
	Map(50, 2, func(i int) {})
}

// TestAnalyzeBatchPreparedCtxCancel checks that a canceled context skips
// not-yet-started jobs while completed jobs keep their reports, and that
// an undisturbed context analyzes everything.
func TestAnalyzeBatchPreparedCtxCancel(t *testing.T) {
	p, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := luleshConfigs()

	live := (&Runner{Workers: 2}).AnalyzeBatchPreparedCtx(context.Background(), p, cfgs)
	for _, res := range live {
		if res.Err != nil {
			t.Fatalf("live context batch failed at job %d: %v", res.Index, res.Err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := (&Runner{Workers: 2}).AnalyzeBatchPreparedCtx(ctx, p, cfgs)
	for i, res := range dead {
		if res.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Index)
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("job %d: want context.Canceled, got %v", i, res.Err)
		}
		if res.Report != nil {
			t.Fatalf("job %d: skipped job must not carry a report", i)
		}
	}
}

// TestSweepFitCtxStreams checks the streaming entry point: results
// arrive in input order, exactly once each, match the batch API, and
// emit is never called concurrently.
func TestSweepFitCtxStreams(t *testing.T) {
	p, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := luleshConfigs()
	batch := (&Runner{Workers: 4}).AnalyzeBatchPrepared(p, cfgs)

	var streamed []Result
	err = (&Runner{Workers: 4}).SweepFitCtx(context.Background(), p, cfgs, func(res Result) error {
		streamed = append(streamed, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(cfgs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(cfgs))
	}
	for i, res := range streamed {
		if res.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Index)
		}
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if got, want := summarize(res.Report), summarize(batch[i].Report); got != want {
			t.Fatalf("streamed result %d diverges from the batch API", i)
		}
	}
}

// TestSweepFitCtxEmitError checks that a failing sink cancels the rest
// of the stream: emit is not called again and the call returns the
// sink's error after the pool drains.
func TestSweepFitCtxEmitError(t *testing.T) {
	p, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := luleshConfigs()
	sinkErr := errors.New("sink full")
	calls := 0
	err = (&Runner{Workers: 2}).SweepFitCtx(context.Background(), p, cfgs, func(res Result) error {
		calls++
		if calls == 2 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("want sink error back, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times after failure, want 2", calls)
	}
}

// TestSweepFitCtxCancel checks cooperative cancellation: a dead context
// still emits every slot, with skip errors on not-started jobs.
func TestSweepFitCtxCancel(t *testing.T) {
	p, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var seen int
	err = (&Runner{Workers: 2}).SweepFitCtx(ctx, p, luleshConfigs(), func(res Result) error {
		seen++
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("job %d: want context.Canceled, got %v", res.Index, res.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("emit never failed, got %v", err)
	}
	if seen != len(luleshConfigs()) {
		t.Fatalf("saw %d results, want every slot", seen)
	}
}
