package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/modelreg"
)

// ResolveModelDefaults overlays a modeling config's defaults on the
// app's taint configuration — the one canonical merge. Every surface
// that extracts models (this daemon, `perftaint model`'s local mode,
// examples/modeling) must route through it: registry cache hits depend
// on all of them computing byte-identical defaults before digesting.
func ResolveModelDefaults(app App, cfg modelreg.Config) modelreg.Config {
	cfg.Defaults = mergedConfig(app, cfg.Defaults)
	return cfg
}

// modelConfig assembles the modelreg configuration from a request and
// the app's taint defaults: the inverse of api.NewModelRequest, followed
// by the canonical overlay.
func modelConfig(req api.ModelRequest, app App) modelreg.Config {
	cfg := modelreg.Config{
		App:      req.App,
		Params:   req.Params,
		Reps:     req.Reps,
		Seed:     req.Seed,
		RelNoise: req.RelNoise,
		Batch:    req.Batch,
		Metrics:  req.Metrics,
		Defaults: req.Defaults,
		Axes:     req.Axes,
	}
	return ResolveModelDefaults(app, cfg)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 1) {
		return
	}
	var req api.ModelRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	app, spec, prepared, digest, err := s.resolve(r.Context(), req.App)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The request is resolved once — defaults filled, design checked and
	// sized against the cap, digest taken — and the build below starts
	// from that same value.
	cfg, err := modelConfig(req, app).Resolve(spec, s.opts.MaxSweepConfigs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key := cfg.Key(digest)

	// Streaming mode: progress events as they happen, one JSON object
	// per line, then the terminal result. Joiners of someone else's
	// in-flight build see no progress events (the builder owns them)
	// but still receive the result line.
	var emit func(line *api.ModelStreamLine)
	var onEvent func(modelreg.Event)
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		rc := http.NewResponseController(w)
		var seq int64
		emit = func(line *api.ModelStreamLine) {
			seq++
			line.Seq = seq
			_ = enc.Encode(line)
			_ = rc.Flush()
		}
		onEvent = func(ev modelreg.Event) { emit(&api.ModelStreamLine{Event: ev}) }
	}

	// The registry's singleflight guarantees one build per key however
	// many clients ask at once. The build is scoped to the SERVER's
	// lifetime, not this request's: joiners of an in-flight build must not
	// fail because the first requester disconnected, so a build, once
	// started, runs to completion (it is fuel-bounded and capped by
	// MaxSweepConfigs) and warms the registry even if every requester has
	// gone away. Daemon shutdown cancels it. A joiner whose own client goes
	// away stops waiting at once; only the builder's context is not consulted.
	ms, cached, err := s.models.GetContext(r.Context(), key, func() (*modelreg.ModelSet, error) {
		start := time.Now()
		// The design's points take the daemon's one design-point path,
		// journaled under the registry key; fitting, measurement synthesis,
		// and ranking always run here, so the artifact (and its key) is
		// identical wherever the points ran and however often the
		// extraction was interrupted.
		sweep := func(ctx context.Context, cfgs []apps.Config, consume func(modelreg.Sample) error) error {
			d := design{app: req.App, digest: digest, prepared: prepared, cfgs: cfgs}
			return s.streamPoints(ctx, key, d, &modelSink{cfgs: cfgs, consume: consume})
		}
		ms, err := modelreg.ExtractWith(s.baseCtx, sweep, s.opts.Workers, prepared, cfg, onEvent)
		// The fit histogram observes real extractions only: cache and disk
		// hits never reach this closure.
		s.metrics.Stage(StageFit).ObserveSince(start)
		return ms, err
	})
	var jerr *journalError
	switch {
	case err != nil && r.Context().Err() != nil:
		// The client went away (a joiner stops waiting right then): nothing
		// useful can be written to a gone peer.
	case err != nil && req.Stream:
		emit(&api.ModelStreamLine{Event: modelreg.Event{Type: "error"}, Error: err.Error()})
	case err != nil && (s.baseCtx.Err() != nil || errors.As(err, &jerr)):
		// Shutdown or a journal hiccup, not a server bug: the resubmission
		// resumes from what is durable.
		httpError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	case req.Stream:
		emit(&api.ModelStreamLine{
			Event: modelreg.Event{Type: "result"},
			Key:   key, SpecDigest: digest, DesignDigest: ms.DesignDigest,
			Cached: cached, ModelSet: ms,
		})
	default:
		writeJSON(w, http.StatusOK, &api.ModelResponse{
			Key: key, SpecDigest: digest, DesignDigest: ms.DesignDigest,
			Cached: cached, ModelSet: ms,
		})
	}
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ms, ok := s.models.Lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no model set under key %q", key))
		return
	}
	writeJSON(w, http.StatusOK, &api.ModelResponse{
		Key: key, SpecDigest: ms.SpecDigest, DesignDigest: ms.DesignDigest,
		Cached: true, ModelSet: ms,
	})
}

// Models submits one model-extraction request and returns the finished
// (or cached) model set.
func (c *Client) Models(ctx context.Context, req api.ModelRequest) (*api.ModelResponse, error) {
	req.Stream = false
	var out api.ModelResponse
	if err := c.do(ctx, http.MethodPost, "/v1/models", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelByKey fetches a stored model set (memory or disk tier) by its
// registry key.
func (c *Client) ModelByKey(ctx context.Context, key string) (*api.ModelResponse, error) {
	var out api.ModelResponse
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+key, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ModelsStream submits a model-extraction request in streaming mode:
// onEvent (optional) observes every progress line, and the terminal
// result line is returned. A server-side failure arrives as an error
// even though the HTTP status was already 200 when streaming began.
//
// With Retries > 0 a broken stream resubmits the whole request: the
// server's registry and journal make resubmission idempotent (journaled
// samples replay instead of re-running), but progress events may repeat
// across a reconnect — onEvent consumers should treat events as
// at-least-once. The returned result is unaffected: it is served from
// the content-addressed registry either way.
func (c *Client) ModelsStream(ctx context.Context, req api.ModelRequest, onEvent func(modelreg.Event)) (*api.ModelResponse, error) {
	req.Stream = true
	var result *api.ModelResponse
	err := c.retry(ctx, func() error {
		resp, err := c.stream(ctx, "/v1/models", &req, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		result = nil
		err = scanNDJSON(resp.Body, func(raw []byte) error {
			var line api.ModelStreamLine
			if err := json.Unmarshal(raw, &line); err != nil {
				return fmt.Errorf("service: decode model stream line: %w", err)
			}
			switch line.Type {
			case "result":
				result = &api.ModelResponse{Key: line.Key, SpecDigest: line.SpecDigest,
					DesignDigest: line.DesignDigest, Cached: line.Cached, ModelSet: line.ModelSet}
			case "error":
				// The server finished the extraction and it failed; retrying
				// would re-run the same failing build.
				return &permanentError{fmt.Errorf("service: model extraction failed: %s", line.Error)}
			default:
				if onEvent != nil {
					onEvent(line.Event)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if result == nil {
			// Truncated stream: the daemon died before the result line.
			return fmt.Errorf("service: model stream ended without a result line")
		}
		return nil
	})
	if err != nil {
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		return nil, err
	}
	return result, nil
}
