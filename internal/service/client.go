package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
)

// Client talks to a perftaintd daemon over its JSON HTTP API. The zero
// HTTP client is http.DefaultClient; sweeps stream, so no response is
// ever buffered wholesale.
//
// With Retries > 0 every verb rides through transient failures: 429s
// are retried after the server's Retry-After hint, transport errors and
// 502/503/504 with capped jittered exponential backoff, and Sweep
// reconnects mid-stream — it resubmits with an Idempotency-Key plus the
// last consumed seq and the server replays from its journal, so a
// daemon restart is invisible in the emitted line sequence.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Retries is how many times a failed request (or broken stream) is
	// retried after the first attempt. 0 — the zero value — disables all
	// retrying, preserving fail-fast behavior for callers that manage
	// their own.
	Retries int
	// RetryBaseDelay seeds the exponential backoff (doubling per attempt,
	// jittered, capped at 5s; a server Retry-After hint overrides upward,
	// capped at 30s). <= 0 means 100ms.
	RetryBaseDelay time.Duration
}

// NewClient returns a client for the daemon at base. A bare host:port
// (no scheme) is normalized to http://, so every CLI -addr flag accepts
// the same spellings.
func NewClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{BaseURL: base}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes the server's api.ErrorBody envelope into an api.APIError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	out := &api.APIError{StatusCode: resp.StatusCode}
	var env api.ErrorBody
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		out.Message = env.Error
		out.RetryAfterMS = env.RetryAfterMS
	} else {
		out.Message = string(bytes.TrimSpace(body))
	}
	return out
}

// permanentError marks a failure retrying cannot fix (a server-side
// extraction failure, a caller abort); the retry loops pass it through.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// retryable classifies an error for the retry loops: 429 and gateway-ish
// statuses retry, other API errors are the server's final word, and
// anything not typed (transport failures, broken streams, a daemon
// mid-restart) retries.
func retryable(err error) bool {
	var perm *permanentError
	if errors.As(err, &perm) {
		return false
	}
	var apiErr *api.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// retryDelay computes the wait before retry number attempt (0-based):
// jittered exponential backoff from RetryBaseDelay capped at 5s, pushed
// up (capped at 30s) by a server Retry-After hint when one rode in on
// the error.
func (c *Client) retryDelay(attempt int, err error) time.Duration {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	// Full jitter on the top half keeps reconnecting clients from
	// stampeding a freshly-restarted daemon in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var apiErr *api.APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfterMS > 0 {
		if hint := time.Duration(apiErr.RetryAfterMS) * time.Millisecond; hint > d {
			d = hint
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
	}
	return d
}

// sleepCtx waits d or until ctx dies, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retry runs op under the client's retry policy: up to Retries extra
// attempts, only for retryable errors, never past ctx.
func (c *Client) retry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || attempt >= c.Retries || !retryable(err) {
			return err
		}
		if sleepErr := sleepCtx(ctx, c.retryDelay(attempt, err)); sleepErr != nil {
			return err
		}
	}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service: encode request: %w", err)
		}
	}
	return c.retry(ctx, func() error {
		var rd io.Reader
		if raw != nil {
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return &permanentError{fmt.Errorf("service: build request: %w", err)}
		}
		if raw != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("service: %s %s: %w", method, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			return apiError(resp)
		}
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("service: decode %s response: %w", path, err)
		}
		return nil
	})
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches the daemon counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze submits one configuration and returns the finished job (the
// server runs it inline unless req.Async is set, in which case the
// returned job is still queued — poll it with Job or WaitJob).
func (c *Client) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.JobInfo, error) {
	var out api.JobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches a job by id.
func (c *Client) Job(ctx context.Context, id string) (*api.JobInfo, error) {
	var out api.JobInfo
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it reaches a terminal status or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.JobInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch info.Status {
		case api.StatusDone, api.StatusFailed, api.StatusCanceled:
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-t.C:
		}
	}
}

// stream POSTs body to path and returns the raw streaming response;
// the caller owns resp.Body. Error statuses are decoded and returned.
// hdr entries (may be nil) are added to the request — the resume
// headers ride here.
func (c *Client) stream(ctx context.Context, path string, body any, hdr map[string]string) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("service: encode %s request: %w", path, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("service: build %s request: %w", path, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		httpReq.Header.Set(k, v)
	}
	resp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("service: POST %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp, nil
}

// scanNDJSON feeds every non-empty line of r to emit; a non-nil error
// from emit aborts the scan and is returned.
func scanNDJSON(r io.Reader, emit func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := emit(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("service: response stream: %w", err)
	}
	return nil
}

// Sweep submits a full-factorial design and invokes emit for every
// NDJSON result line in design order as the server streams them. A
// non-nil error from emit aborts the stream and is returned. A
// server-side drain line (the daemon shutting down mid-sweep announces
// itself with a final jobless error record) is surfaced as an error
// rather than passed to emit, so callers can tell "server stopped" from
// "stream truncated" and from an ordinary per-config failure.
//
// With Retries > 0 a broken or aborted stream reconnects transparently:
// the resubmission carries a content-derived Idempotency-Key plus the
// last consumed seq, the server replays its journal from there, and
// already-emitted lines are deduplicated by seq — emit observes each
// design point exactly once, in order, across any number of daemon
// restarts. Progress resets the attempt budget, so a long sweep is not
// starved by retries spent on earlier disconnects.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest, emit func(api.SweepLine) error) error {
	idem := idempotencyKey(&req)
	var lastSeq int64
	for attempt := 0; ; attempt++ {
		before := lastSeq
		err := c.sweepOnce(ctx, &req, idem, &lastSeq, emit)
		if err == nil {
			return nil
		}
		if lastSeq > before {
			attempt = 0
		}
		if ctx.Err() != nil || attempt >= c.Retries || !retryable(err) {
			var perm *permanentError
			if errors.As(err, &perm) {
				return perm.err
			}
			return err
		}
		if sleepErr := sleepCtx(ctx, c.retryDelay(attempt, err)); sleepErr != nil {
			return err
		}
	}
}

// sweepOnce runs one connection's worth of a sweep, advancing *lastSeq
// as lines are consumed and skipping journal-replayed lines the caller
// has already seen.
func (c *Client) sweepOnce(ctx context.Context, req *api.SweepRequest, idem string, lastSeq *int64, emit func(api.SweepLine) error) error {
	hdr := map[string]string{api.HeaderIdempotencyKey: idem}
	if *lastSeq > 0 {
		hdr[api.HeaderLastSeq] = fmt.Sprintf("%d", *lastSeq)
	}
	resp, err := c.stream(ctx, "/v1/sweep", req, hdr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return scanNDJSON(resp.Body, func(line []byte) error {
		var rec api.SweepLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("service: decode sweep line: %w", err)
		}
		if rec.JobID == "" && rec.Error != "" {
			// Drain/abort lines are control flow: retryable (the daemon is
			// restarting or journaling hiccuped), never passed to emit.
			return fmt.Errorf("service: sweep aborted by server: %s", rec.Error)
		}
		if rec.Seq > 0 && rec.Seq <= *lastSeq {
			// Replayed line the previous connection already delivered.
			return nil
		}
		if err := emit(rec); err != nil {
			return &permanentError{err}
		}
		if rec.Seq > *lastSeq {
			*lastSeq = rec.Seq
		}
		return nil
	})
}

// idempotencyKey derives the resume key from the request content: the
// same design resubmitted by a reconnecting client (even a restarted
// client process) addresses the same journaled job on the server.
func idempotencyKey(req *api.SweepRequest) string {
	raw, _ := json.Marshal(req)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// SweepAll collects a sweep into a slice; convenient for small designs.
func (c *Client) SweepAll(ctx context.Context, req api.SweepRequest) ([]api.SweepLine, error) {
	var out []api.SweepLine
	err := c.Sweep(ctx, req, func(l api.SweepLine) error {
		out = append(out, l)
		return nil
	})
	return out, err
}
