// Package modelreg is the model-extraction back half of the pipeline: it
// turns a stream of sweep results into ranked, rendered performance
// models — the paper's actual output artifact.
//
// Three pieces compose:
//
//   - Pipeline consumes runner sweep results as they stream (one per
//     design point, in design order), feeds per-function/per-metric
//     points into extrap datasets, and reports at every configurable
//     batch of new points how many datasets are fittable so far (a
//     "refit" event); the fits run once, on the complete data. The
//     white-box half comes
//     from a taint run at the smallest design point: its per-function
//     parameter dependencies become extrap priors, its relevance set the
//     instrumentation filter.
//
//   - ModelSet is the finished artifact: per function and metric, the
//     hybrid (taint-prior) and black-box fits with validation
//     diagnostics (adjusted R-squared, leave-one-out cross-validation
//     error, noise CoV) and the paper-style clean-vs-tainted parameter
//     attribution — which dependencies the taint proof confirms and
//     which black-box terms it vetoes as noise.
//
//   - Registry is the content-addressed store: model sets are keyed by
//     the spec's content digest plus a canonical digest of the modeling
//     design (axes, defaults, repetitions, seed, metrics, fit cadence),
//     so the same spec and design never fit twice — the analysis
//     daemon's POST /v1/models answers repeats from cache.
//
// RenderMarkdown and RenderHTML turn a ModelSet into the human-readable
// report (per-function model table, attribution, fit diagnostics) that
// cmd/perftaint's report subcommand and the service expose.
package modelreg
