// Package service turns the Perf-Taint pipeline into a long-running
// analysis daemon: a JSON-over-HTTP API in front of the PR-1 batch runner
// and the PR-2 fast interpreter, with a content-addressed PreparedCache
// so the expensive per-spec stage (module build, verification, static
// pass, predecoding) is paid once per distinct spec content no matter how
// many clients and configurations hit it.
//
// Endpoints:
//
//	POST /v1/analyze            one configuration; inline result or async job
//	POST /v1/sweep              full-factorial design; streams NDJSON results
//	POST /v1/models             end-to-end model extraction; cached by content
//	GET  /v1/jobs/{id}          job status and result
//	GET  /v1/stats              cache, scheduler, and cluster counters
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               liveness
//	POST /v1/worker/register    cluster: worker joins a coordinator
//	POST /v1/worker/heartbeat   cluster: worker liveness
//	POST /v1/shard              cluster: execute one design shard (NDJSON)
//
// All wire types live in the versioned internal/api package; handlers
// here only move them.
//
// Cluster roles: a daemon started with Options.Coordinator accepts the
// same client API but partitions sweeps and model extractions into
// contiguous design shards dispatched to registered workers, merging
// results back into the exact single-node stream; a daemon with
// Options.JoinURL registers with a coordinator and serves /v1/shard. A
// coordinator with no live workers degrades to ordinary local execution.
// Architecture: every submission resolves its spec through the
// PreparedCache (canonical SHA-256 of the spec content; singleflight
// deduplication of concurrent misses; LRU bound). Every analysis then
// takes one of Options.Workers slots (scheduler.go). A /v1/analyze
// request is a job: one analysis with an ID, a status record and a
// start deadline. Sweeps and model extractions are designs: they take
// the one design-point path (pipeline.go) — journal acceptance, replay
// of the durable prefix, the remaining points from the local slots or
// from the cluster, append-then-deliver in deterministic design order — and
// differ only in the sink that consumes the points, so results are
// reproducible and large designs never buffer in memory.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// Options configures a Server; the zero value serves the bundled apps
// with GOMAXPROCS workers and sensible bounds.
type Options struct {
	// Workers bounds concurrently running analyses, whichever endpoint
	// asked for them; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the PreparedCache LRU; <= 0 means 16.
	CacheEntries int
	// JobTimeout is the default and the ceiling of a job's start-TTL, how
	// long it may wait for a slot; <= 0 means 60s.
	JobTimeout time.Duration
	// MaxSweepConfigs rejects designs larger than this; <= 0 means 4096.
	MaxSweepConfigs int
	// ModelEntries bounds the content-addressed model registry behind
	// POST /v1/models; <= 0 means 16.
	ModelEntries int
	// CacheDir, when non-empty, roots the model registry's persistent
	// tier (a restarted daemon serves finished model sets without
	// re-paying the sweep-and-fit) and the durable job journal: sweeps and
	// model extractions then survive daemon restarts, resuming from the
	// last journaled design point. Empty keeps the daemon memory-only.
	CacheDir string
	// MaxBodyBytes caps every JSON request body; oversized bodies are
	// rejected with 413. <= 0 means 4 MiB.
	MaxBodyBytes int64
	// Rate enables per-client token-bucket admission control: each
	// client (X-Client-ID header, else remote host) accrues Rate tokens
	// per second up to max(1, 2*Rate), one analysis costs one token, a
	// sweep one per design point. Exhausted clients get 429 +
	// Retry-After. <= 0 disables it.
	Rate float64
	// Apps extends or overrides the bundled application registry.
	Apps map[string]App

	// Coordinator enables cluster coordination: sweeps and model
	// extractions shard across registered workers when any are live.
	Coordinator bool
	// JoinURL, when non-empty, runs this daemon as a cluster worker: it
	// registers with the coordinator at this base URL and heartbeats
	// until shutdown. Mutually exclusive with Coordinator.
	JoinURL string
	// AdvertiseURL is the base URL the coordinator should dial this
	// worker back on; empty derives it from the bound listen address.
	AdvertiseURL string
	// ShardTimeout bounds one shard dispatch round-trip; <= 0 means 2m.
	ShardTimeout time.Duration
	// HeartbeatInterval paces worker heartbeats and the coordinator's
	// liveness reaper; <= 0 means 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may go silent before the
	// coordinator benches it; <= 0 means 4x HeartbeatInterval.
	HeartbeatTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 16
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.MaxSweepConfigs <= 0 {
		o.MaxSweepConfigs = 4096
	}
	if o.ModelEntries <= 0 {
		o.ModelEntries = 16
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 4 << 20
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	return o
}

// Server is the analysis daemon: an http.Handler plus the shared cache
// and scheduler behind it.
type Server struct {
	opts    Options
	cache   *PreparedCache
	sched   *scheduler
	models  *modelreg.Registry
	metrics *Metrics
	limiter *rateLimiter
	apps    map[string]App
	mux     *http.ServeMux
	start   time.Time
	// baseCtx scopes work that must outlive any single request (model
	// registry builds shared by many requesters); stop cancels it on
	// Close.
	baseCtx context.Context
	stop    context.CancelFunc

	// journal is the durable job journal (nil without a cache dir); the source
	// of truth for open sweep/model jobs across restarts.
	journal *journal.Store

	// coord is non-nil in coordinator mode; worker (guarded by clusterMu,
	// set when a worker loop starts) is this daemon's cluster membership.
	coord     *coordinator
	clusterMu sync.Mutex
	worker    *workerLink
}

// NewServer assembles a daemon from opts; the only failure mode is an
// unusable Options.CacheDir. Call Close to drain it.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	reg := BundledApps()
	for name, app := range opts.Apps {
		reg[name] = app
	}
	metrics := newMetrics()
	s := &Server{
		opts:    opts,
		cache:   NewPreparedCache(opts.CacheEntries, metrics.Stage(StagePrepare)),
		models:  modelreg.NewRegistry(opts.ModelEntries),
		metrics: metrics,
		limiter: newRateLimiter(opts.Rate),
		apps:    reg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	if opts.CacheDir != "" {
		models, err := modelreg.OpenDiskLayer(filepath.Join(opts.CacheDir, "models"))
		if err != nil {
			return nil, fmt.Errorf("service: open cache dir: %w", err)
		}
		s.models.SetDisk(models)
		// Opening the store is also recovery: torn journal tails are
		// truncated and already-terminal journals compacted, so every
		// remaining file is an open job awaiting resubmission.
		if s.journal, err = journal.Open(filepath.Join(opts.CacheDir, "journal")); err != nil {
			return nil, fmt.Errorf("service: open journal: %w", err)
		}
	}
	if opts.Coordinator && opts.JoinURL != "" {
		return nil, fmt.Errorf("service: a daemon is a coordinator or a worker, not both")
	}
	s.sched = newScheduler(opts.Workers, s.metrics.Stage(StageRun))
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/models/{key}", s.handleModelGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	if opts.Coordinator {
		s.coord = newCoordinator(s)
		s.mux.HandleFunc("POST /v1/worker/register", s.coord.handleRegister)
		s.mux.HandleFunc("POST /v1/worker/heartbeat", s.coord.handleHeartbeat)
		go s.coord.reap(s.baseCtx)
	}
	return s, nil
}

// Handler exposes the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the content-addressed store (tests and embedders).
func (s *Server) Cache() *PreparedCache { return s.cache }

// Models exposes the content-addressed model registry (tests and
// embedders).
func (s *Server) Models() *modelreg.Registry { return s.models }

// Close stops accepting jobs, cancels in-flight model builds, and
// drains the scheduler.
func (s *Server) Close() {
	s.stop()
	s.sched.close()
}

// ListenAndServe serves the daemon on addr until ctx is done, then shuts
// the listener down gracefully and drains the scheduler. It reports the
// bound address through ready (if non-nil) once the listener is up —
// callers binding ":0" learn the real port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if s.opts.JoinURL != "" {
		advertise := s.opts.AdvertiseURL
		if advertise == "" {
			advertise = "http://" + dialableAddr(ln.Addr().String())
		}
		// Membership lives for the daemon, not any request; Close (via
		// baseCtx) ends it.
		s.StartWorkerLoop(s.baseCtx, s.opts.JoinURL, advertise)
	}
	// Slow-client hardening. ReadHeaderTimeout kills slowloris openers
	// that trickle header bytes forever; ReadTimeout bounds the whole
	// request read (bodies are small — MaxBodyBytes — so a minute is
	// generous); IdleTimeout reaps parked keep-alive connections. There
	// is deliberately NO WriteTimeout: sweep and model responses are
	// long-lived NDJSON streams whose legitimate lifetime is the design
	// size, and a write deadline would cut them mid-line.
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Drain the scheduler FIRST: waiting jobs cancel immediately and
		// running ones finish, so handlers blocked on job completion
		// unblock quickly and Shutdown only has to wait out response
		// writing. The grace still allows one full job in case a worker
		// picked something up at the last instant.
		s.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), s.opts.JobTimeout+5*time.Second)
		defer cancel()
		err = hs.Shutdown(shCtx)
		<-errc
	case err = <-errc:
	}
	s.Close()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// dialableAddr rewrites a bound listen address into one another host
// can dial: the unspecified host (":7070", "0.0.0.0", "::") becomes
// loopback, which is correct for single-machine clusters and for tests;
// multi-host deployments set Options.AdvertiseURL explicitly.
func dialableAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(s.apps))
	for name := range s.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := &api.StatsResponse{
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Workers:     s.opts.Workers,
		Apps:        names,
		Cache:       s.cache.Stats(),
		Models:      s.models.Stats(),
		Jobs:        s.sched.jobStats(),
		ModelsDisk:  s.models.DiskStats(),
		RateLimited: s.metrics.RateLimited(),
	}
	if s.coord != nil {
		resp.Cluster = s.coord.stats()
	} else if s.workerLinkRef() != nil {
		resp.Cluster = &api.ClusterStats{Role: "worker"}
	}
	if s.journal != nil {
		jst := s.journal.Stats()
		resp.Journal = &jst
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 1) {
		return
	}
	var req api.AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	app, spec, prepared, digest, err := s.resolve(r.Context(), req.App)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cfg := mergedConfig(app, req.Config)
	if err := spec.CheckConfig(cfg); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkCensusParams(spec, req.CensusParams); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	base := r.Context()
	if req.Async {
		// Async jobs outlive the submitting request.
		base = context.Background()
	}
	j, err := s.sched.submit(base, s.timeout(req.TimeoutMS), req.Async, req.App, digest, cfg, censusParams(req.CensusParams), prepared)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, j.Info())
		return
	}
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.Info())
	case <-r.Context().Done():
		// The job waits on the request's context, so it has already left
		// the line; nothing useful can be written to a gone peer.
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	app, spec, prepared, digest, err := s.resolve(r.Context(), req.App)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	grid := runner.Design{Spec: spec, Defaults: mergedConfig(app, req.Defaults), Axes: req.Axes}
	if _, err := grid.Check(s.opts.MaxSweepConfigs); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkCensusParams(spec, req.CensusParams); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cfgs := grid.Configs()
	// A resume point the server cannot read is a client bug; answering it
	// with a full replay (what Last-Seq 0 means) would hide it.
	var lastSeq int64
	if v := r.Header.Get(api.HeaderLastSeq); v != "" {
		if lastSeq, err = strconv.ParseInt(v, 10, 64); err != nil || lastSeq < 0 {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%s header %q is not a non-negative integer", api.HeaderLastSeq, v))
			return
		}
	}
	// Admission control charges a sweep by what it costs: one token per
	// design point (clamped to the bucket capacity inside the limiter so
	// a legal design is throttled, not starved).
	if !s.admit(w, r, float64(len(cfgs))) {
		return
	}

	// The stream dies with the request or the daemon, whichever first. A
	// sweep has no start-TTL unless the request asks for one: the
	// streaming request's lifetime already governs it, and a
	// submission-anchored TTL would doom the tail of any design larger
	// than workers x (TTL / run time).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	if req.TimeoutMS > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
		defer stop()
	}

	d := design{app: req.App, digest: digest, prepared: prepared, cfgs: cfgs,
		censusParams: censusParams(req.CensusParams)}
	sink := &sweepSink{s: s, d: d, w: w, rc: http.NewResponseController(w), last: lastSeq}
	key := sweepJournalKey(req.App, digest, cfgs, d.censusParams, r.Header.Get(api.HeaderIdempotencyKey))
	err = s.streamPoints(ctx, key, d, sink)
	var jerr *journalError
	switch {
	case err == nil || r.Context().Err() != nil:
		// Complete, or nobody left to tell.
	case !sink.begun:
		// Never accepted: the client's retry starts (or resumes) cleanly.
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &jerr):
		// A point the journal refuses is never exposed; the client's
		// reconnect replays the durable prefix and re-runs it.
		sink.control(0, fmt.Sprintf("journal append failed: %v", jerr.err))
	case s.baseCtx.Err() != nil:
		sink.control(sink.next, "server draining: sweep stopped before completion")
	case errors.Is(err, context.DeadlineExceeded):
		sink.control(sink.next, "timeout_ms elapsed: sweep stopped before its last point started")
	}
}

// sweepJournalKey is a sweep's content address in the journal: the
// prepared spec digest plus the fully-expanded design, census params,
// and the client's idempotency scope. TimeoutMS is deliberately
// excluded — a retry with a different timeout is still the same job.
func sweepJournalKey(app, digest string, cfgs []apps.Config, params []string, idem string) string {
	payload, _ := json.Marshal(struct {
		App    string        `json:"app"`
		Digest string        `json:"digest"`
		Cfgs   []apps.Config `json:"cfgs"`
		Params []string      `json:"params"`
		Idem   string        `json:"idem,omitempty"`
	}{app, digest, cfgs, params, idem})
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// resolve maps an app name to its registry entry and its cached Prepared
// artifact, building the latter through the content-addressed cache.
func (s *Server) resolve(ctx context.Context, name string) (App, *apps.Spec, *core.Prepared, string, error) {
	app, ok := s.apps[name]
	if !ok {
		names := make([]string, 0, len(s.apps))
		for n := range s.apps {
			names = append(names, n)
		}
		sort.Strings(names)
		return App{}, nil, nil, "", fmt.Errorf("unknown app %q (registered: %v)", name, names)
	}
	spec := app.New()
	p, digest, err := s.cache.Get(ctx, spec)
	if err != nil {
		return App{}, nil, nil, "", fmt.Errorf("prepare %q: %w", name, err)
	}
	return app, spec, p, digest, nil
}

// timeout resolves a request's start-TTL. The server's JobTimeout is
// both the default and the ceiling: the shutdown grace is sized from
// it, so no client-supplied value may exceed it.
func (s *Server) timeout(ms int64) time.Duration {
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < s.opts.JobTimeout {
			return d
		}
	}
	return s.opts.JobTimeout
}

func censusParams(req []string) []string {
	if len(req) > 0 {
		return req
	}
	return api.DefaultCensusParams()
}

// --- helpers ---

// decodeBody reads exactly one JSON value from the request into dst,
// writing the error response itself and returning false on failure. The
// body is capped at Options.MaxBodyBytes (oversized requests answer 413
// with a typed error body instead of being silently truncated into a
// confusing parse error), unknown fields are rejected, and so is any
// trailing garbage after the JSON value — "two documents glued
// together" is a client bug worth failing loudly.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Exactly one value: a second decode must hit EOF.
		var extra json.RawMessage
		if trailErr := dec.Decode(&extra); trailErr != io.EOF {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("invalid request body: trailing data after the JSON value"))
			return false
		}
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
	return false
}

// admit charges n tokens against the requesting client's admission
// bucket, answering 429 with a Retry-After header (and counting the
// rejection) when the bucket cannot cover it. Always true when rate
// limiting is disabled.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n float64) bool {
	ok, retry := s.limiter.allowN(clientKey(r), n)
	if ok {
		return true
	}
	s.metrics.rateLimitedInc()
	secs := int(retry/time.Second) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, &api.ErrorBody{
		Error:        fmt.Sprintf("rate limit exceeded for this client; retry in %ds", secs),
		RetryAfterMS: retry.Milliseconds(),
	})
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError answers with the API's single error envelope; handlers must
// route every failure through it (or admit) so clients see one shape.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, &api.ErrorBody{Error: err.Error()})
}
