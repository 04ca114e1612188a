package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// modelTestRequest is a small but real LULESH modeling design.
func modelTestRequest() api.ModelRequest {
	return api.ModelRequest{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: map[string]float64{"regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps:  2,
		Seed:  3,
		Batch: 2,
	}
}

// TestModelRequestRoundTrip keeps local and -addr extractions on one
// design: a config sent through api.NewModelRequest and read back by the
// daemon's modelConfig must equal what the local path computes
// (ResolveModelDefaults), field for field and under the registry key.
func TestModelRequestRoundTrip(t *testing.T) {
	cfg := modelreg.Config{
		App:      "lulesh",
		Params:   []string{"size", "p"},
		Defaults: apps.Config{"regions": 4, "iters": 2},
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps: 2, Seed: 3, RelNoise: 0.05, Batch: 2,
		Metrics: []string{"iterations", "seconds"},
	}
	// A Config field this fixture leaves zero could be dropped on the
	// wire without the comparison below noticing.
	for v, i := reflect.ValueOf(cfg), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves modelreg.Config.%s zero; set it", v.Type().Field(i).Name)
		}
	}
	app := BundledApps()[cfg.App]
	local := ResolveModelDefaults(app, cfg)
	remote := modelConfig(api.NewModelRequest(cfg), app)
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("daemon would extract\n %+v\nthe local path\n %+v", remote, local)
	}
	digest := core.SpecDigest(app.New())
	if r, l := modelreg.Key(digest, remote), modelreg.Key(digest, local); r != l {
		t.Errorf("registry key differs: remote %s, local %s", r, l)
	}
}

func TestServeModelsCachesBySpecAndDesign(t *testing.T) {
	srv, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	first, err := client.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first extraction claims a cache hit")
	}
	if first.ModelSet == nil || len(first.ModelSet.Functions) == 0 {
		t.Fatal("empty model set")
	}
	if first.ModelSet.Points != 4 {
		t.Fatalf("consumed %d points, want 4", first.ModelSet.Points)
	}

	// Acceptance criterion: the same spec digest + design answers from
	// the registry with the identical model set.
	second, err := client.Models(ctx, modelTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second extraction missed the registry")
	}
	if second.Key != first.Key || !reflect.DeepEqual(first.ModelSet, second.ModelSet) {
		t.Fatal("cached model set differs from the first extraction")
	}
	if st := srv.Models().Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("registry stats %+v, want 1 miss / 1 hit", st)
	}

	// A different design is a different address and a fresh build.
	other := modelTestRequest()
	other.Seed = 99
	third, err := client.Models(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Key == first.Key {
		t.Fatalf("distinct design shared the address: %+v", third.Key)
	}

	// GET /v1/models/{key} serves the resident artifact.
	got, err := client.ModelByKey(ctx, first.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || !reflect.DeepEqual(got.ModelSet, first.ModelSet) {
		t.Fatal("GET by key diverges from the extraction")
	}
	if _, err := client.ModelByKey(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing key: %v", err)
	}

	// /v1/stats carries the registry counters.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Models.Entries != 2 || stats.Models.Misses != 2 {
		t.Fatalf("stats.Models = %+v", stats.Models)
	}
}

func TestServeModelsStreamsProgress(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	var mu sync.Mutex
	var events []modelreg.Event
	resp, err := client.ModelsStream(ctx, modelTestRequest(), func(ev modelreg.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.ModelSet == nil {
		t.Fatalf("streaming build: %+v", resp)
	}
	var taints, points, refits int
	lastPoint := 0
	for _, ev := range events {
		switch ev.Type {
		case "taint":
			taints++
		case "point":
			points++
			if ev.Points != lastPoint+1 {
				t.Fatalf("point events out of order: %+v", ev)
			}
			lastPoint = ev.Points
		case "refit":
			refits++
		}
	}
	if taints != 1 || points != 4 || refits == 0 {
		t.Fatalf("event counts taint=%d point=%d refit=%d", taints, points, refits)
	}

	// A repeat streams no progress (registry hit) but still the result.
	events = nil
	resp2, err := client.ModelsStream(ctx, modelTestRequest(), func(ev modelreg.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || len(events) != 0 {
		t.Fatalf("cache hit streamed %d events, cached=%v", len(events), resp2.Cached)
	}
	if !reflect.DeepEqual(resp.ModelSet, resp2.ModelSet) {
		t.Fatal("streamed and cached model sets differ")
	}
}

func TestServeModelsRejectsBadDesigns(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1, MaxSweepConfigs: 8})
	ctx := context.Background()

	cases := []struct {
		name   string
		mutate func(*api.ModelRequest)
	}{
		{"unknown app", func(r *api.ModelRequest) { r.App = "nope" }},
		{"no axes", func(r *api.ModelRequest) { r.Axes = nil }},
		{"unknown axis param", func(r *api.ModelRequest) { r.Axes[0].Param = "typo" }},
		{"unswept model param", func(r *api.ModelRequest) { r.Params = []string{"p", "regions"} }},
		{"unknown metric", func(r *api.ModelRequest) { r.Metrics = []string{"flops"} }},
		{"oversized design", func(r *api.ModelRequest) {
			r.Axes[0].Values = []float64{2, 4, 8}
			r.Axes[1].Values = []float64{4, 5, 6}
		}},
	}
	for _, tc := range cases {
		req := modelTestRequest()
		req.Axes = []runner.Axis{
			{Param: "p", Values: append([]float64(nil), 2, 4)},
			{Param: "size", Values: append([]float64(nil), 4, 5)},
		}
		tc.mutate(&req)
		if _, err := client.Models(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: want a 400, got %v", tc.name, err)
		}
	}
}

// TestEveryPointRunsOnThePool pins the one-executor contract: a model
// extraction's design points run on the scheduler's pool like any other
// analysis, so the run-stage histogram counts them and Options.Workers
// bounds them together with a concurrent sweep.
func TestEveryPointRunsOnThePool(t *testing.T) {
	srv, client := testServer(t, Options{Workers: 1})
	ctx := context.Background()
	var load occupancy
	srv.sched.analyze = load.of((*core.Prepared).Analyze)
	runCount := func() string {
		t.Helper()
		resp, err := http.Get(client.BaseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		const series = `perftaintd_stage_duration_seconds_count{stage="run"} `
		_, after, ok := strings.Cut(string(raw), series)
		if !ok {
			t.Fatalf("no %s in /metrics", series)
		}
		count, _, _ := strings.Cut(after, "\n")
		return count
	}

	// One registry miss of a 4-point design: 4 pool analyses (the
	// pipeline's own taint run is not a design point).
	if _, err := client.Models(ctx, modelTestRequest()); err != nil {
		t.Fatal(err)
	}
	if got := runCount(); got != "4" {
		t.Fatalf("run-stage histogram counts %s analyses after a 4-point extraction, want 4", got)
	}

	// A second extraction and a sweep at once still share the one worker.
	other := modelTestRequest()
	other.Seed = 99
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := client.Models(ctx, other); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := client.SweepAll(ctx, resilienceSweepReq()); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got := load.peak.Load(); got != 1 {
		t.Fatalf("%d analyses were in flight at once on a Workers: 1 daemon", got)
	}
	if got := runCount(); got != "12" {
		t.Fatalf("run-stage histogram counts %s analyses, want 12", got)
	}
}

// TestModelsJoinerLeavesWithItsClient: a /v1/models handler waiting on
// someone else's flight — the Prepared build or the registry build of the
// same key — returns as soon as its own client disconnects, while that
// build is still running, and the build is not disturbed by it.
func TestModelsJoinerLeavesWithItsClient(t *testing.T) {
	leakcheck.Check(t)
	srv, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every /v1/models handler that returns is reported here.
	returned := make(chan struct{}, 4)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/models" {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	client := NewClient(hs.URL)
	req := modelTestRequest()

	// disconnect posts req, waits until the handler has joined a flight
	// (joiners count as hits before they park), hangs up, and requires the
	// handler to return although the build it joined is still held open.
	disconnect := func(t *testing.T, joined func() uint64) {
		t.Helper()
		before := joined()
		ctx, cancel := context.WithCancel(context.Background())
		gone := make(chan error, 1)
		go func() {
			_, err := client.Models(ctx, req)
			gone <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); joined() == before; {
			if time.Now().After(deadline) {
				t.Fatal("the second request never joined the flight")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-gone; !errors.Is(err, context.Canceled) {
			t.Fatalf("disconnected client got err = %v", err)
		}
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("the joiner's handler is still parked on someone else's build after its client left")
		}
	}

	t.Run("prepare", func(t *testing.T) {
		// The first client's request builds the Prepared artifact; the seam
		// holds that build open.
		release := make(chan struct{})
		building := make(chan struct{})
		srv.cache.prepare = func(spec *apps.Spec) (*core.Prepared, error) {
			close(building)
			<-release
			return core.Prepare(spec)
		}
		first := make(chan error, 1)
		go func() {
			_, err := client.Models(context.Background(), req)
			first <- err
		}()
		<-building
		disconnect(t, func() uint64 { return srv.cache.Stats().Hits })
		close(release)
		if err := <-first; err != nil {
			t.Fatalf("the first client's extraction failed: %v", err)
		}
		<-returned
		srv.cache.prepare = core.Prepare
	})

	t.Run("registry", func(t *testing.T) {
		// The registry flight of a fresh key is held open from here, the
		// way a first client's extraction holds it for as long as it runs.
		req.Seed++
		app, spec, _, digest, err := srv.resolve(context.Background(), req.App)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := modelConfig(req, app).Resolve(spec, srv.opts.MaxSweepConfigs)
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		building := make(chan struct{})
		held := errors.New("held build released")
		built := make(chan error, 1)
		go func() {
			_, _, err := srv.models.Get(cfg.Key(digest), func() (*modelreg.ModelSet, error) {
				close(building)
				<-release
				return nil, held
			})
			built <- err
		}()
		<-building
		disconnect(t, func() uint64 { return srv.models.Stats().Hits })
		close(release)
		if err := <-built; !errors.Is(err, held) {
			t.Fatalf("the held build returned %v", err)
		}
	})
}
