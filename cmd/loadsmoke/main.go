// Command loadsmoke is the CI load-and-restart check for the hardened
// analysis daemon. It launches a real perftaintd process with a
// persistent cache dir and a per-client rate limit, drives it with N
// concurrent clients submitting mixed traffic (single analyses, NDJSON
// sweeps, model extractions, stats polls), then stops the daemon and
// starts a fresh one over the same cache dir. It exits non-zero unless:
//
//   - no request ever answered a 5xx during the storm;
//   - the admission limiter engaged (at least one 429 with Retry-After);
//   - the restarted daemon serves the previously-extracted model set
//     from disk with zero rebuilds — first by GET /v1/models/{key}, before
//     any POST re-registers the key, then by POST;
//   - GET /metrics scrapes cleanly on both daemons.
//
// The final /metrics scrape is written to -metrics-out so CI can attach
// it as an artifact.
//
//	go run ./cmd/loadsmoke -clients 8              # builds ./cmd/perftaintd itself
//	go run ./cmd/loadsmoke -daemon bin/perftaintd -clients 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/service"
	"repro/internal/smoketest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadsmoke: ")
	daemon := flag.String("daemon", "", "path to the perftaintd binary (empty = build ./cmd/perftaintd)")
	clients := flag.Int("clients", 8, "concurrent load-generating clients")
	perClient := flag.Int("requests", 12, "requests each client submits")
	rate := flag.Float64("rate", 1, "per-client admission rate handed to the daemon (low enough that a 12-request burst must trip it)")
	metricsOut := flag.String("metrics-out", "loadsmoke_metrics.txt", "file the final /metrics scrape is written to")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall smoke deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *daemon, *clients, *perClient, *rate, *metricsOut); err != nil {
		log.Fatal(err)
	}
	fmt.Println("loadsmoke: OK — no 5xx under load, limiter engaged, restart served from disk")
}

// counters aggregates client-side observations across the storm.
type counters struct {
	ok          atomic.Uint64
	rateLimited atomic.Uint64
	serverErrs  atomic.Uint64
	otherErrs   atomic.Uint64
}

func run(ctx context.Context, daemon string, clients, perClient int, rate float64, metricsOut string) error {
	defer smoketest.Cleanup()
	cacheDir, err := os.MkdirTemp("", "loadsmoke-cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	// --- Phase 1: storm a rate-limited daemon with mixed traffic. ---
	first, err := phaseStorm(ctx, daemon, cacheDir, clients, perClient, rate)
	if err != nil {
		return err
	}

	// --- Phase 2: a fresh process over the same cache dir. ---
	d2, err := smoketest.StartDaemon(ctx, daemon, "", nil, "-cache-dir", cacheDir, "-workers", "4")
	if err != nil {
		return err
	}
	defer d2.Term()
	client2 := service.NewClient(d2.Base)
	// The pre-restart key is a durable content address: it must resolve
	// before any POST has touched the new process.
	byKey, err := client2.ModelByKey(ctx, first.Key)
	if err != nil {
		return fmt.Errorf("GET /v1/models/{key} after restart, before any POST: %w", err)
	}
	if byKey.Key != first.Key || byKey.ModelSet == nil {
		return fmt.Errorf("GET by key after restart answered key %s, want %s with its model set", byKey.Key, first.Key)
	}
	warm, err := client2.Models(ctx, modelRequest())
	if err != nil {
		return fmt.Errorf("model extraction after restart: %w", err)
	}
	if !warm.Cached {
		return fmt.Errorf("restarted daemon rebuilt the model set instead of serving the disk tier")
	}
	if warm.Key != first.Key {
		return fmt.Errorf("model key drifted across restart: %s vs %s", warm.Key, first.Key)
	}
	if _, err := client2.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		return fmt.Errorf("analyze after restart: %w", err)
	}
	st, err := client2.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats after restart: %w", err)
	}
	if st.Models.DiskHits == 0 {
		return fmt.Errorf("restarted registry reports %d disk hits, want > 0 (stats: %+v)", st.Models.DiskHits, st.Models)
	}
	if st.Models.Misses != 0 {
		return fmt.Errorf("restarted registry rebuilt %d model sets, want 0 (stats: %+v)", st.Models.Misses, st.Models)
	}
	fmt.Printf("loadsmoke: restart: model disk hits=%d, model rebuilds=%d, prepare rebuilds=%d\n",
		st.Models.DiskHits, st.Models.Misses, st.Cache.Misses)

	// Final scrape, kept as the CI artifact; sanity-check the disk-hit
	// family is present and non-zero in the exposition itself.
	text, err := smoketest.ScrapeMetrics(ctx, d2.Base, metricsOut)
	if err != nil {
		return fmt.Errorf("metrics scrape after restart: %w", err)
	}
	if !strings.Contains(text, `perftaintd_cache_disk_hits_total{cache="models"}`) {
		return fmt.Errorf("/metrics exposition is missing the disk-hit family")
	}
	return nil
}

// phaseStorm runs the rate-limited daemon through the storm, extracts the
// model set the restart must serve, and drains the daemon gracefully.
func phaseStorm(ctx context.Context, daemon, cacheDir string, clients, perClient int, rate float64) (*api.ModelResponse, error) {
	d, err := smoketest.StartDaemon(ctx, daemon, "", nil,
		"-cache-dir", cacheDir, "-rate", fmt.Sprint(rate), "-workers", "4")
	if err != nil {
		return nil, err
	}
	defer d.Term() // SIGTERM + wait: the graceful-drain path, not a hard kill
	var cnt counters
	if err := storm(ctx, d.Base, clients, perClient, &cnt); err != nil {
		return nil, err
	}
	fmt.Printf("loadsmoke: storm: %d ok, %d rate-limited, %d server errors, %d other errors\n",
		cnt.ok.Load(), cnt.rateLimited.Load(), cnt.serverErrs.Load(), cnt.otherErrs.Load())
	if cnt.serverErrs.Load() > 0 {
		return nil, fmt.Errorf("%d responses were 5xx under load", cnt.serverErrs.Load())
	}
	if cnt.rateLimited.Load() == 0 {
		return nil, fmt.Errorf("limiter never engaged: %d clients x %d requests all admitted at rate %g",
			clients, perClient, rate)
	}
	if cnt.ok.Load() == 0 {
		return nil, fmt.Errorf("no request succeeded — the limiter starved everything")
	}
	// Extract a model set so the restart has a zero-rebuild artifact to
	// serve, and scrape /metrics once while warm.
	first, err := service.NewClient(d.Base).Models(ctx, modelRequest())
	if err != nil {
		return nil, fmt.Errorf("model extraction before restart: %w", err)
	}
	if _, err := smoketest.ScrapeMetrics(ctx, d.Base, ""); err != nil {
		return nil, fmt.Errorf("metrics scrape before restart: %w", err)
	}
	return first, nil
}

// modelRequest is the small LULESH modeling design both phases submit;
// identical bytes, so the second phase addresses the first's artifact.
func modelRequest() api.ModelRequest {
	return api.ModelRequest{
		App:    "lulesh",
		Params: []string{"p", "size"},
		Axes: []api.SweepAxis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps: 2, Seed: 3, Batch: 2,
	}
}

// storm runs the mixed-traffic load: each client loops over analyze,
// sweep, and stats requests under its own X-Client-ID, classifying every
// outcome. 429s are expected (the point of the limiter); 5xx are fatal.
func storm(ctx context.Context, base string, clients, perClient int, cnt *counters) error {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("loadsmoke-%d", c)
			hc := &http.Client{Transport: clientIDTransport{id: id}}
			cl := &service.Client{BaseURL: base, HTTP: hc}
			for i := 0; i < perClient; i++ {
				var err error
				switch i % 4 {
				case 0, 1:
					_, err = cl.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"})
				case 2:
					err = cl.Sweep(ctx, api.SweepRequest{
						App:  "lulesh",
						Axes: []api.SweepAxis{{Param: "p", Values: []float64{2, 4}}},
					}, func(api.SweepLine) error { return nil })
				default:
					_, err = cl.Stats(ctx)
				}
				classify(err, cnt)
			}
		}(c)
	}
	wg.Wait()
	return ctx.Err()
}

// classify buckets one request outcome.
func classify(err error, cnt *counters) {
	if err == nil {
		cnt.ok.Add(1)
		return
	}
	var apiErr *api.APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.StatusCode == http.StatusTooManyRequests:
			cnt.rateLimited.Add(1)
		case apiErr.StatusCode >= 500:
			cnt.serverErrs.Add(1)
		default:
			cnt.otherErrs.Add(1)
		}
		return
	}
	cnt.otherErrs.Add(1)
}

// clientIDTransport stamps every request with a stable X-Client-ID so
// each simulated client owns its own admission bucket.
type clientIDTransport struct{ id string }

// RoundTrip implements http.RoundTripper.
func (t clientIDTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(service.ClientIDHeader, t.id)
	return http.DefaultTransport.RoundTrip(req)
}
