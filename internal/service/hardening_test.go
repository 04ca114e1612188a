package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/runner"
)

// postJSON fires a raw POST so tests can control headers and bodies the
// typed client never produces.
func postJSON(t *testing.T, base, path, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRateLimiterTokenBucket(t *testing.T) {
	l := newRateLimiter(1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }

	if ok, _ := l.allowN("a", 1); !ok {
		t.Fatal("fresh bucket rejected")
	}
	if ok, _ := l.allowN("a", 1); !ok {
		t.Fatal("burst capacity not honored")
	}
	ok, wait := l.allowN("a", 1)
	if ok {
		t.Fatal("drained bucket admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s]", wait)
	}
	// Another client has its own bucket.
	if ok, _ := l.allowN("b", 1); !ok {
		t.Fatal("second client starved by the first")
	}
	// Refill: one second restores one token.
	now = now.Add(time.Second)
	if ok, _ := l.allowN("a", 1); !ok {
		t.Fatal("refilled bucket rejected")
	}
	// Charges above burst clamp to burst — a legal large sweep drains the
	// bucket but is never unservable.
	now = now.Add(time.Hour)
	if ok, _ := l.allowN("a", 100); !ok {
		t.Fatal("over-burst charge not clamped")
	}
	if l.clients() != 2 {
		t.Fatalf("clients = %d, want 2", l.clients())
	}
	if newRateLimiter(0) != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
	var nilL *rateLimiter
	if ok, _ := nilL.allowN("x", 1); !ok {
		t.Fatal("nil limiter must admit everything")
	}
}

func TestRateLimiterSweepsBucketMap(t *testing.T) {
	l := newRateLimiter(1000)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxTrackedClients; i++ {
		l.allowN(fmt.Sprintf("client-%d", i), 1)
	}
	// All buckets refill within a second at this rate; the next new
	// client triggers the sweep instead of growing the map unboundedly.
	now = now.Add(time.Minute)
	l.allowN("one-more", 1)
	if n := l.clients(); n > 2 {
		t.Fatalf("clients = %d after sweep, want <= 2", n)
	}
}

func TestServeRateLimits429(t *testing.T) {
	// One token per ~17 minutes with burst 1: the second request inside
	// the test window is deterministically rejected.
	_, client := testServer(t, Options{Workers: 1, Rate: 0.001})
	ctx := context.Background()

	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		t.Fatal(err)
	}
	_, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"})
	if err == nil {
		t.Fatal("second request admitted past an empty bucket")
	}
	var apiErr *api.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v, want *api.APIError", err, err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", apiErr.StatusCode)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Fatalf("RetryAfterMS = %d, want > 0", apiErr.RetryAfterMS)
	}

	// The Retry-After header rides on the raw response too.
	resp := postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"lulesh"}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// A distinct X-Client-ID is a distinct bucket: same address, admitted.
	resp2 := postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"lulesh"}`,
		map[string]string{ClientIDHeader: "someone-else"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("distinct client id got %d, want 200", resp2.StatusCode)
	}
}

func TestServeCapsRequestBodies(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1, MaxBodyBytes: 256})

	big := `{"app":"lulesh","config":{` + strings.Repeat(`"p":1,`, 100) + `"p":1}}`
	resp := postJSON(t, client.BaseURL, "/v1/analyze", big, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("256-byte limit")) {
		t.Fatalf("413 body %q does not name the limit", body)
	}

	// Trailing garbage after a valid JSON value is a client bug → 400.
	resp2 := postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"lulesh"} trailing`, nil)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing garbage got %d, want 400", resp2.StatusCode)
	}

	// Unknown fields stay rejected through the new decode path.
	resp3 := postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"lulesh","bogus":1}`, nil)
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field got %d, want 400", resp3.StatusCode)
	}

	// A legal request still fits comfortably.
	resp4 := postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"lulesh"}`, nil)
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("legal request got %d, want 200", resp4.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1, Rate: 0.001})
	ctx := context.Background()
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err != nil {
		t.Fatal(err)
	}
	// Burn the bucket so the rejection counter is non-zero.
	if _, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); err == nil {
		t.Fatal("expected a 429 to feed the rejection counter")
	}

	resp, err := http.Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text format 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE perftaintd_queue_depth gauge",
		"perftaintd_queue_depth 0",
		`perftaintd_jobs_total{outcome="completed"} 1`,
		`perftaintd_cache_misses_total{cache="prepared"} 1`,
		`perftaintd_cache_disk_hits_total{cache="models"} 0`,
		"# TYPE perftaintd_stage_duration_seconds histogram",
		`perftaintd_stage_duration_seconds_bucket{stage="prepare",le="+Inf"} 1`,
		`perftaintd_stage_duration_seconds_count{stage="run"} 1`,
		`perftaintd_stage_duration_seconds_count{stage="fit"} 0`,
		"perftaintd_ratelimit_rejected_total 1",
		"perftaintd_uptime_seconds",
		"perftaintd_workers 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histograms must be cumulative: the le="+Inf" bucket equals _count.
	if !strings.Contains(text, `perftaintd_stage_duration_seconds_count{stage="prepare"} 1`) {
		t.Error("prepare histogram count missing or not 1")
	}
}

// TestSweepDrainEmitsTerminalErrorLine: a daemon stopping mid-sweep must
// say so in-band — a final well-formed jobless error line — so clients
// can tell a graceful stop from a truncated stream. The typed client
// surfaces it as an error.
func TestSweepDrainEmitsTerminalErrorLine(t *testing.T) {
	srv, client := testServer(t, Options{Workers: 1, Apps: map[string]App{"slow": slowApp()}})
	ctx := context.Background()

	lines := 0
	err := client.Sweep(ctx, api.SweepRequest{
		App:  "slow",
		Axes: []runner.Axis{{Param: "n", Values: []float64{2e6, 2e6, 2e6, 2e6}}},
	}, func(line api.SweepLine) error {
		lines++
		if lines == 1 {
			// Cancel the daemon's base context while the later configs are
			// still queued behind the single slow worker: the handler's next
			// wait observes the drain, not the job.
			srv.stop()
		}
		return nil
	})
	if err == nil {
		t.Fatalf("sweep ended cleanly (%d lines) — expected the drain error", lines)
	}
	if !strings.Contains(err.Error(), "sweep aborted by server") {
		t.Fatalf("err = %v, want the in-band drain line surfaced", err)
	}
	if lines < 1 {
		t.Fatal("no result lines before the drain")
	}
}
