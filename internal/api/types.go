package api

import (
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/journal"
	"repro/internal/runner"
)

// AnalyzeRequest is the body of POST /v1/analyze: one configuration of a
// registered application. Config entries overlay the app's default taint
// configuration, so an empty config analyzes the paper's taint run and
// {"p": 16} changes only the rank count.
type AnalyzeRequest struct {
	// App names the registered application.
	App string `json:"app"`
	// Config overlays the app's default taint configuration.
	Config apps.Config `json:"config,omitempty"`
	// CensusParams selects the loop-relevance column of the census;
	// defaults to the paper's model parameters {p, size}.
	CensusParams []string `json:"census_params,omitempty"`
	// Async, when true, returns the queued job immediately; poll it via
	// GET /v1/jobs/{id}. The default waits for the result inline.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds how long the job may wait to START: a job still
	// queued past it is canceled, never run. Once started, a job always
	// finishes — runs are bounded by interpreter fuel, not wall clock.
	// 0 uses the server default; larger values clamp to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepAxis is an alias name of runner.Axis, kept only because
// benchmark/ spells it (ROADMAP item 1 drops it).
type SweepAxis = runner.Axis

// SweepRequest is the body of POST /v1/sweep: a full-factorial design
// over a registered application. The response streams one NDJSON
// SweepLine per configuration in deterministic design order (last axis
// varying fastest), so arbitrarily large designs never buffer
// server-side.
type SweepRequest struct {
	// App names the registered application.
	App string `json:"app"`
	// Defaults overlay the app's taint configuration for the non-swept
	// parameters.
	Defaults apps.Config `json:"defaults,omitempty"`
	// Axes span the full-factorial design.
	Axes []runner.Axis `json:"axes"`
	// CensusParams selects the loop-relevance column of each result's
	// census; defaults to {p, size}.
	CensusParams []string `json:"census_params,omitempty"`
	// TimeoutMS optionally gives the design points a start-TTL from
	// submission (clamped to the server default): a sweep whose points
	// have not all started by then stops with an in-band error line, and
	// reconnecting resumes it. 0 — the default — means the points live as
	// long as the streaming request itself, so the tail of a large design
	// is not doomed by its siblings' runtime.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepLine is one NDJSON record of a sweep response.
type SweepLine struct {
	// Seq is the line's monotone position in the stream, starting at 1;
	// a reconnecting client sends the last seq it consumed in the
	// Last-Seq header and the server resumes after it. Control lines
	// (the drain notice) carry seq 0 and are never replayed.
	Seq int64 `json:"seq"`
	// Index is the record's position in design order.
	Index int `json:"index"`
	// JobID labels the design point: job-(first+index), from the block
	// the sweep reserved at acceptance. Not resolvable via /v1/jobs.
	JobID string `json:"job_id"`
	// Config is the fully-merged configuration analyzed at this point.
	Config apps.Config `json:"config"`
	// Result carries the analysis on success.
	Result *AnalysisResult `json:"result,omitempty"`
	// Error carries the per-configuration failure, if any.
	Error string `json:"error,omitempty"`
}

// Job lifecycle states reported by the API.
const (
	// StatusQueued marks a job submitted but not yet claimed by a worker.
	StatusQueued = "queued"
	// StatusRunning marks a job claimed and executing.
	StatusRunning = "running"
	// StatusDone marks a successfully finished job.
	StatusDone = "done"
	// StatusFailed marks a job whose analysis failed.
	StatusFailed = "failed"
	// StatusCanceled marks a job canceled before it could start.
	StatusCanceled = "canceled"
)

// JobInfo is the wire view of one scheduled analysis job.
type JobInfo struct {
	// ID is the job's address for GET /v1/jobs/{id}.
	ID string `json:"id"`
	// App names the analyzed application.
	App string `json:"app"`
	// Status is one of the Status* lifecycle states.
	Status string `json:"status"`
	// Config is the fully-merged configuration the job analyzes.
	Config apps.Config `json:"config"`
	// SpecDigest is the content address of the prepared spec.
	SpecDigest string `json:"spec_digest"`
	// Submitted, Started, and Finished timestamp the lifecycle.
	Submitted time.Time `json:"submitted"`
	// Started is when a worker claimed the job (zero while queued).
	Started time.Time `json:"started,omitzero"`
	// Finished is when the job reached a terminal status.
	Finished time.Time `json:"finished,omitzero"`
	// DurationMS is the run time of a finished job (excluding queueing).
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Result carries the analysis of a done job.
	Result *AnalysisResult `json:"result,omitempty"`
	// Error carries the failure of a failed or canceled job.
	Error string `json:"error,omitempty"`
}

// AnalysisResult is the paper-facing projection of a core.Report that
// travels over the wire: the Table 2 census, per-function parameter
// dependencies and symbolic volumes, the instrumentation filter, and the
// dynamic cost of the tainted run. It mirrors the perftaint CLI's JSON
// report so the golden snapshots under internal/core/testdata gate the
// service responses too.
type AnalysisResult struct {
	// App names the analyzed application.
	App string `json:"app"`
	// SpecDigest is the content address of the analyzed spec.
	SpecDigest string `json:"spec_digest"`
	// Census carries the Table 2 style pruning statistics.
	Census core.Census `json:"census"`
	// FuncDeps maps each function to its proven parameter dependencies.
	FuncDeps map[string][]string `json:"function_dependencies"`
	// Volumes renders the symbolic iteration volume of each dependent
	// function.
	Volumes map[string]string `json:"volumes"`
	// Relevant is the instrumentation filter (sorted function names).
	Relevant []string `json:"instrumentation_filter"`
	// Recursion lists volume-analysis recursion warnings, if any.
	Recursion []string `json:"recursion_warnings,omitempty"`
	// Instructions is the dynamic cost of the tainted run.
	Instructions int64 `json:"tainted_run_instructions"`
}

// NewAnalysisResult projects a report into its wire form.
func NewAnalysisResult(app, digest string, rep *core.Report, censusParams []string) *AnalysisResult {
	out := &AnalysisResult{
		App:          app,
		SpecDigest:   digest,
		Census:       rep.Census(censusParams),
		FuncDeps:     rep.FuncDeps,
		Volumes:      make(map[string]string),
		Recursion:    rep.Volumes.RecursionWarnings,
		Instructions: rep.Instructions,
	}
	if out.FuncDeps == nil {
		out.FuncDeps = map[string][]string{}
	}
	for fn := range rep.Relevant {
		out.Relevant = append(out.Relevant, fn)
	}
	sort.Strings(out.Relevant)
	for fn, deps := range rep.FuncDeps {
		if len(deps) > 0 {
			out.Volumes[fn] = rep.Volumes.ByFunc[fn].String()
		}
	}
	return out
}

// JobStats aggregates scheduler counters for /v1/stats.
type JobStats struct {
	// Submitted counts every job ever accepted.
	Submitted uint64 `json:"submitted"`
	// Completed, Failed, and Canceled count terminal outcomes.
	Completed uint64 `json:"completed"`
	// Failed counts jobs whose analysis errored.
	Failed uint64 `json:"failed"`
	// Canceled counts jobs stopped before they could start.
	Canceled uint64 `json:"canceled"`
	// Queued and Running snapshot the live scheduler state.
	Queued int `json:"queued"`
	// Running counts jobs currently executing.
	Running int `json:"running"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// UptimeMS is the daemon's age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// Workers is the size of the local analysis worker pool.
	Workers int `json:"workers"`
	// Apps lists the registered application names.
	Apps []string `json:"apps"`
	// Cache snapshots the PreparedCache counters.
	Cache CacheStats `json:"cache"`
	// Models snapshots the model registry counters.
	Models CacheStats `json:"models"`
	// Jobs snapshots the scheduler counters.
	Jobs JobStats `json:"jobs"`
	// ModelsDisk reports the model registry's persistent tier store
	// counters; all-zero when the daemon runs without a cache dir.
	ModelsDisk diskcache.Stats `json:"models_disk"`
	// RateLimited counts requests rejected with 429 by admission control.
	RateLimited uint64 `json:"rate_limited"`
	// Cluster reports the coordinator/worker state; nil on a standalone
	// daemon, so single-node stats responses are unchanged.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Journal reports the durable job journal's counters; nil when the
	// daemon runs without one (no cache dir).
	Journal *journal.Stats `json:"journal,omitempty"`
}

// CacheStats is a point-in-time snapshot of one content-addressed
// cache's counters: the PreparedCache ("cache", memory-only, so
// disk_hits reads 0) and the model registry ("models").
type CacheStats = diskcache.CacheStats

// DefaultCensusParams is the census column used when a request does not
// name its model parameters: the paper's {p, size}.
func DefaultCensusParams() []string { return []string{"p", "size"} }
