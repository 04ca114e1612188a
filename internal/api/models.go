package api

import (
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// ModelRequest is the body of POST /v1/models: one end-to-end model
// extraction — sweep the design, feed every point into the model
// pipeline, return the ranked model set. Results are content-addressed:
// the same app (spec digest) and design answer from the model registry
// without re-running anything.
type ModelRequest struct {
	// App names the registered application.
	App string `json:"app"`
	// Params are the model parameters; empty defaults to the axis
	// parameters in axis order.
	Params []string `json:"params,omitempty"`
	// Defaults overlay the app's taint configuration for the non-swept
	// parameters (same semantics as POST /v1/sweep).
	Defaults map[string]float64 `json:"defaults,omitempty"`
	// Axes span the full-factorial modeling design.
	Axes []runner.Axis `json:"axes"`
	// Reps, Seed, RelNoise, Batch and Metrics tune the measurement and
	// fitting cadence; zero values take the modelreg defaults.
	Reps int `json:"reps,omitempty"`
	// Seed fixes the synthetic measurement noise stream.
	Seed int64 `json:"seed,omitempty"`
	// RelNoise is the relative noise level of synthetic measurements.
	RelNoise float64 `json:"rel_noise,omitempty"`
	// Batch is the refit-event cadence in design points: every Batch
	// points the stream reports how many datasets are fittable so far.
	Batch int `json:"batch,omitempty"`
	// Metrics names the modeled metrics (first is the ranking metric).
	Metrics []string `json:"metrics,omitempty"`
	// Stream, when true, answers with NDJSON: one progress event per
	// line (taint, point, refit — a batch boundary's fittability count,
	// never a model) followed by a terminal "result" line
	// carrying the ModelResponse. Cache hits skip straight to the
	// result line.
	Stream bool `json:"stream,omitempty"`
}

// NewModelRequest is the wire form of a local modeling config — what
// `perftaint model -addr` and the smoke scenarios submit — so a design
// extracted locally and through a daemon is the same design. The
// daemon's service.modelConfig is its inverse.
func NewModelRequest(cfg modelreg.Config) ModelRequest {
	return ModelRequest{
		App:      cfg.App,
		Params:   cfg.Params,
		Defaults: cfg.Defaults,
		Axes:     cfg.Axes,
		Reps:     cfg.Reps,
		Seed:     cfg.Seed,
		RelNoise: cfg.RelNoise,
		Batch:    cfg.Batch,
		Metrics:  cfg.Metrics,
	}
}

// ModelResponse is the body of a finished model extraction (and of
// GET /v1/models/{key}).
type ModelResponse struct {
	// Key is the registry address: hash of spec digest + design digest.
	Key string `json:"key"`
	// SpecDigest and DesignDigest are the two halves of the address.
	SpecDigest string `json:"spec_digest"`
	// DesignDigest is the canonical hash of the modeling design.
	DesignDigest string `json:"design_digest"`
	// Cached reports whether the set was served from the registry
	// without a new sweep.
	Cached bool `json:"cached"`
	// ModelSet is the artifact itself.
	ModelSet *modelreg.ModelSet `json:"model_set"`
}

// ModelStreamLine is one NDJSON record of a streaming model response:
// either a progress event (Type taint/point/refit) or the terminal
// result (Type "result" with the ModelResponse fields set).
type ModelStreamLine struct {
	// Seq is the line's monotone position in the stream, starting at 1
	// (same resume semantics as SweepLine.Seq).
	Seq int64 `json:"seq"`
	modelreg.Event
	// Key, SpecDigest, DesignDigest, Cached, and ModelSet mirror the
	// ModelResponse on the terminal "result" line.
	Key string `json:"key,omitempty"`
	// SpecDigest is the spec half of the content address.
	SpecDigest string `json:"spec_digest,omitempty"`
	// DesignDigest is the design half of the content address.
	DesignDigest string `json:"design_digest,omitempty"`
	// Cached reports registry provenance on the result line.
	Cached bool `json:"cached,omitempty"`
	// ModelSet is the finished artifact on the result line.
	ModelSet *modelreg.ModelSet `json:"model_set,omitempty"`
	// Error carries a terminal extraction failure.
	Error string `json:"error,omitempty"`
}
