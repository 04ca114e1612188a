package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

func testServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	leakcheck.Check(t) // registered first => verified after the server closes
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL)
}

func TestServeAnalyzeMatchesDirectPipeline(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	job, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != api.StatusDone || job.Result == nil {
		t.Fatalf("job = %+v, want done with result", job)
	}

	want, err := core.Analyze(apps.LULESH(), apps.LULESHTaintConfig())
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.Census != want.Census(api.DefaultCensusParams()) {
		t.Errorf("served census drifted:\n got %+v\nwant %+v", job.Result.Census, want.Census(api.DefaultCensusParams()))
	}
	if job.Result.Instructions != want.Instructions {
		t.Errorf("instructions = %d, want %d", job.Result.Instructions, want.Instructions)
	}
	if !reflect.DeepEqual(job.Result.FuncDeps, want.FuncDeps) {
		t.Error("function dependencies drifted from the direct pipeline")
	}
	if job.Result.SpecDigest != core.SpecDigest(apps.LULESH()) {
		t.Error("result does not carry the spec content address")
	}
}

func TestServeCacheHitOnSecondSubmission(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (single build)", st.Cache.Misses)
	}
	if st.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1 on the second submission", st.Cache.Hits)
	}
	if st.Jobs.Completed != 2 {
		t.Errorf("completed jobs = %d, want 2", st.Jobs.Completed)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Cache.Entries)
	}
}

func TestServeAsyncJobLifecycle(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1})
	ctx := context.Background()
	job, err := client.Analyze(ctx, api.AnalyzeRequest{App: "milc", Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatal("async submission returned no job id")
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := client.WaitJob(waitCtx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone || final.Result == nil {
		t.Fatalf("final job = %+v, want done with result", final)
	}
	if final.Result.App != "milc" {
		t.Fatalf("result app = %q, want milc", final.Result.App)
	}
}

func TestServeSweepStreamsDeterministicOrder(t *testing.T) {
	_, client := testServer(t, Options{Workers: 4})
	ctx := context.Background()
	req := api.SweepRequest{
		App: "lulesh",
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
	}
	lines, err := client.SweepAll(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d sweep lines, want 4", len(lines))
	}
	// Design order: last axis fastest.
	wantCfgs := [][2]float64{{2, 4}, {2, 5}, {4, 4}, {4, 5}}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d carries index %d", i, l.Index)
		}
		if l.Error != "" || l.Result == nil {
			t.Fatalf("line %d failed: %s", i, l.Error)
		}
		if l.Config["p"] != wantCfgs[i][0] || l.Config["size"] != wantCfgs[i][1] {
			t.Fatalf("line %d config = %v, want p=%g size=%g", i, l.Config, wantCfgs[i][0], wantCfgs[i][1])
		}
	}
	// A repeated sweep reuses the same Prepared: exactly one build ever.
	if _, err := client.SweepAll(ctx, req); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("sweeps rebuilt the spec: misses = %d, want 1", st.Cache.Misses)
	}
}

func TestServeConcurrentMixedLoad(t *testing.T) {
	_, client := testServer(t, Options{Workers: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app := "lulesh"
			if i%2 == 1 {
				app = "milc"
			}
			job, err := client.Analyze(ctx, api.AnalyzeRequest{App: app})
			if err != nil {
				errs <- err
				return
			}
			if job.Status != api.StatusDone {
				errs <- errFromJob(job)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one per distinct app)", st.Cache.Misses)
	}
}

func errFromJob(j *api.JobInfo) error {
	raw, _ := json.Marshal(j)
	return &jobError{string(raw)}
}

type jobError struct{ s string }

func (e *jobError) Error() string { return "unexpected job state: " + e.s }

func TestServeRejectsBadRequests(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1})
	ctx := context.Background()
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Config: apps.Config{"p": -1}}); err == nil {
		t.Error("non-positive p accepted")
	}
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Config: apps.Config{"sze": 5}}); err == nil {
		t.Error("typo'd config parameter silently ignored instead of rejected")
	}
	if _, err := client.SweepAll(ctx, api.SweepRequest{
		App:  "lulesh",
		Axes: []runner.Axis{{Param: "sze", Values: []float64{4, 5}}},
	}); err == nil {
		t.Error("typo'd sweep axis silently ignored instead of rejected")
	}
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", CensusParams: []string{"p", "sze"}}); err == nil {
		t.Error("typo'd census_params silently ignored instead of rejected")
	}
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Config: apps.Config{"p": 0.5}}); err == nil {
		t.Error("fractional p in (0,1) accepted; pipeline would truncate it to 0")
	}
	if _, err := client.SweepAll(ctx, api.SweepRequest{App: "lulesh"}); err == nil {
		t.Error("axis-less sweep accepted")
	}
	if _, err := client.SweepAll(ctx, api.SweepRequest{
		App:  "lulesh",
		Axes: []runner.Axis{{Param: "p"}},
	}); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := client.Job(ctx, "job-999999"); err == nil {
		t.Error("unknown job id did not 404")
	}
}

func TestServeSweepCapsDesignSize(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1, MaxSweepConfigs: 3})
	vals := []float64{2, 4, 8, 16}
	_, err := client.SweepAll(context.Background(), api.SweepRequest{
		App:  "lulesh",
		Axes: []runner.Axis{{Param: "p", Values: vals}},
	})
	if err == nil {
		t.Fatal("oversized design accepted")
	}

	// Stacking enough binary axes to overflow a naive size product must
	// still be rejected (incremental check), as must repeated axes.
	var many []runner.Axis
	for i := 0; i < 70; i++ {
		many = append(many, runner.Axis{Param: "p", Values: []float64{2, 4}})
	}
	if _, err := client.SweepAll(context.Background(), api.SweepRequest{App: "lulesh", Axes: many}); err == nil {
		t.Fatal("2^70 design accepted (size product overflowed)")
	}
	if _, err := client.SweepAll(context.Background(), api.SweepRequest{
		App: "lulesh",
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2}},
			{Param: "p", Values: []float64{4}},
		},
	}); err == nil {
		t.Fatal("duplicate axis accepted")
	}
}

func TestServeClampsJobTimeout(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1, JobTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if d := srv.timeout(0); d != 5*time.Second {
		t.Errorf("default timeout = %v, want 5s", d)
	}
	if d := srv.timeout(100); d != 100*time.Millisecond {
		t.Errorf("small timeout = %v, want 100ms", d)
	}
	// The server sizes its shutdown grace from JobTimeout, so clients
	// cannot exceed it.
	if d := srv.timeout(3_600_000); d != 5*time.Second {
		t.Errorf("oversized timeout = %v, want clamped to 5s", d)
	}
}

func TestServeStartTTLCancelsQueuedWork(t *testing.T) {
	// One worker, a 1ms start-TTL job queued behind a real one: by the
	// time the worker pops it, its time-to-start budget is gone and it
	// must be canceled without running. (A pathologically fast machine
	// could still start it inside the millisecond; "done with a result"
	// is the only other legal outcome — never "failed".)
	_, client := testServer(t, Options{Workers: 1})
	ctx := context.Background()
	first, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Async: true})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Async: true, TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := client.WaitJob(waitCtx, first.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitJob(waitCtx, tight.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	switch final.Status {
	case api.StatusCanceled:
	case api.StatusDone:
		if final.Result == nil {
			t.Fatalf("done job carries no result: %+v", final)
		}
	default:
		t.Fatalf("tight-TTL job status = %s, want canceled (or done on a fast machine)", final.Status)
	}
}

// slowApp is a registered application whose taint run interprets ~20M
// instructions (hundreds of milliseconds): enough to hold a worker busy
// deterministically while a test manipulates the queue behind it. The branch
// in the loop body keeps the fast engine from summarizing the loop, which
// would otherwise cost a handful of iterations whatever n is.
func slowApp() App {
	spec := &apps.Spec{
		Name:   "slow",
		Params: []string{"n"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, Body: []apps.Stmt{
				apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1), Body: []apps.Stmt{
					apps.Branch{Param: "n", Less: 0, Then: []apps.Stmt{apps.Work{Units: 1}}},
				}},
			}},
		},
	}
	return App{
		New:         func() *apps.Spec { return spec },
		TaintConfig: func() apps.Config { return apps.Config{"n": 2e6, "p": 1} },
	}
}

func TestServeCloseCancelsQueuedJobs(t *testing.T) {
	// Shutdown must not execute the backlog: queued jobs are canceled,
	// only in-flight runs finish, so drain latency is bounded by runs
	// in flight rather than queue depth. A slow registered app pins the
	// single worker for hundreds of milliseconds, so Close always lands
	// while the backlog is still queued.
	srv, client := testServer(t, Options{Workers: 1, Apps: map[string]App{"slow": slowApp()}})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 6; i++ {
		job, err := client.Analyze(ctx, api.AnalyzeRequest{App: "slow", Async: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	srv.Close()
	counts := map[string]int{}
	for _, id := range ids {
		info, err := client.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Finished.IsZero() == (info.Status == api.StatusQueued || info.Status == api.StatusRunning) {
			t.Fatalf("job %s inconsistent after Close: %+v", id, info)
		}
		counts[info.Status]++
	}
	if n := counts[api.StatusQueued] + counts[api.StatusRunning]; n != 0 {
		t.Fatalf("%d jobs left unfinished after Close: %v", n, counts)
	}
	if counts[api.StatusFailed] != 0 {
		t.Fatalf("jobs failed during drain: %v", counts)
	}
	// The worker can run at most a couple of jobs before Close lands
	// (each takes ~100ms+); the rest of the backlog must be canceled.
	if counts[api.StatusCanceled] == 0 {
		t.Fatalf("Close ran the entire backlog instead of canceling queued jobs: %v", counts)
	}
}
