// Package perftaint is the public API of the Perf-Taint reproduction: a
// hybrid performance-modeling framework that feeds dynamic taint analysis
// results (which input parameters can affect which loops and library calls)
// into an Extra-P-style empirical modeler, reproducing "Extracting Clean
// Performance Models from Tainted Programs" (PPoPP 2021).
//
// Typical use:
//
//	spec := perftaint.LULESH()
//	rep, err := perftaint.Analyze(spec, perftaint.LULESHTaintConfig())
//	...
//	prior := rep.Prior("CalcQForElems", []string{"p", "size"})
//	model, err := perftaint.FitWithPrior(dataset, prior)
//
// The heavy lifting lives in the internal packages; this facade re-exports
// the stable surface used by the examples and command-line tools.
package perftaint

import (
	"context"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// Re-exported core types.
type (
	// Spec is a declarative application description from which both the
	// analyzable IR program and the analytic ground truth derive.
	Spec = apps.Spec
	// Config assigns concrete values to application parameters (plus the
	// implicit MPI parameter "p").
	Config = apps.Config
	// Report is the result of a Perf-Taint analysis: static pruning,
	// dynamic taint dependencies, symbolic volumes, and modeling priors.
	Report = core.Report
	// Census carries the Table 2 style pruning statistics.
	Census = core.Census
	// Dataset is a set of repeated measurements over named parameters.
	Dataset = extrap.Dataset
	// Model is a fitted performance-model-normal-form instance.
	Model = extrap.Model
	// Prior is the white-box restriction on the model search space.
	Prior = extrap.Prior
	// Prepared caches the per-spec artifacts (built module, verification,
	// static pass) shared by every configuration of a batch.
	Prepared = core.Prepared
	// Runner fans batches of analyses out across a worker pool.
	Runner = runner.Runner
	// BatchResult is one job outcome of a batch: input index, config, and
	// report or error.
	BatchResult = runner.Result
	// Design declares a full-factorial parameter sweep over one spec.
	Design = runner.Design
	// Axis is one swept parameter of a Design, a SweepRequest, a
	// ModelConfig or a ModelRequest: the one axis type.
	Axis = runner.Axis
	// Server is the analysis daemon: the pipeline behind a JSON HTTP API
	// with a content-addressed PreparedCache and a bounded job scheduler.
	Server = service.Server
	// ServerOptions configures a Server (workers, cache capacity, job
	// deadlines).
	ServerOptions = service.Options
	// Client talks to a running perftaintd daemon.
	Client = service.Client
	// AnalyzeRequest is one configuration submitted to a daemon.
	AnalyzeRequest = api.AnalyzeRequest
	// SweepRequest is a full-factorial design submitted to a daemon; the
	// results stream back as NDJSON lines in design order.
	SweepRequest = api.SweepRequest
	// SweepLine is one streamed result record of a sweep.
	SweepLine = api.SweepLine
	// JobInfo is the wire view of one scheduled analysis job.
	JobInfo = api.JobInfo
	// ModelConfig declares one end-to-end model extraction: the design
	// to sweep, the parameters to model over, and the fitting cadence.
	ModelConfig = modelreg.Config
	// ModelSet is the finished model-extraction artifact: ranked
	// per-function models with validation diagnostics and parameter
	// attribution.
	ModelSet = modelreg.ModelSet
	// ModelEvent is one progress record of a running model extraction.
	ModelEvent = modelreg.Event
	// ModelRequest submits a model extraction to a daemon's
	// POST /v1/models endpoint.
	ModelRequest = api.ModelRequest
	// ModelResponse is a daemon's model-extraction answer (model set
	// plus its content address and cache provenance).
	ModelResponse = api.ModelResponse
)

// Analyze runs the full Perf-Taint pipeline (build, static prune, tainted
// execution, dependency aggregation) on spec at the given configuration.
func Analyze(spec *Spec, cfg Config) (*Report, error) {
	return core.Analyze(spec, cfg)
}

// Prepare builds, verifies, and statically classifies spec once; the
// returned Prepared analyzes individual configurations concurrently.
func Prepare(spec *Spec) (*Prepared, error) { return core.Prepare(spec) }

// NewRunner returns a batch runner that saturates GOMAXPROCS.
func NewRunner() *Runner { return runner.New() }

// AnalyzeBatch analyzes spec at every configuration, building the module
// and running the static pass exactly once and fanning the dynamic runs
// out across all cores. Results preserve input order; per-config failures
// are captured in the corresponding BatchResult.Err.
func AnalyzeBatch(spec *Spec, cfgs []Config) ([]BatchResult, error) {
	return runner.New().AnalyzeBatch(spec, cfgs)
}

// Sweep expands a full-factorial design and analyzes it as one batch.
func Sweep(d Design) ([]BatchResult, error) { return runner.New().Sweep(d) }

// NewServer assembles an analysis daemon; serve it with ListenAndServe
// or mount Handler() into an existing HTTP server. The only failure
// mode is an unusable ServerOptions.CacheDir.
func NewServer(opts ServerOptions) (*Server, error) { return service.NewServer(opts) }

// Serve runs an analysis daemon on addr until ctx is done, then drains
// it. It is the programmatic equivalent of `perftaintd -addr addr`.
func Serve(ctx context.Context, addr string, opts ServerOptions) error {
	srv, err := service.NewServer(opts)
	if err != nil {
		return err
	}
	return srv.ListenAndServe(ctx, addr, nil)
}

// NewClient returns a client for the daemon at base, e.g.
// "http://127.0.0.1:7070".
func NewClient(base string) *Client { return service.NewClient(base) }

// SpecDigest returns the content address of a spec: the key under which
// a daemon's PreparedCache shares the prepared artifacts.
func SpecDigest(spec *Spec) string { return core.SpecDigest(spec) }

// LULESH returns the bundled LULESH proxy-app specification.
func LULESH() *Spec { return apps.LULESH() }

// MILC returns the bundled MILC su3_rmd specification.
func MILC() *Spec { return apps.MILC() }

// LULESHTaintConfig is the paper's LULESH taint-run configuration
// (size 5, 8 ranks).
func LULESHTaintConfig() Config { return apps.LULESHTaintConfig() }

// MILCTaintConfig is the paper's MILC taint-run configuration
// (size 128, 32 ranks).
func MILCTaintConfig() Config { return apps.MILCTaintConfig() }

// NewDataset declares a measurement dataset over the given parameters.
func NewDataset(params ...string) *Dataset { return extrap.NewDataset(params...) }

// Fit runs the black-box Extra-P model search on d.
func Fit(d *Dataset) (*Model, error) {
	return extrap.ModelMulti(d, extrap.DefaultOptions(), nil)
}

// FitWithPrior runs the hybrid (taint-informed) model search on d.
func FitWithPrior(d *Dataset, prior *Prior) (*Model, error) {
	return extrap.ModelMulti(d, extrap.DefaultOptions(), prior)
}

// FitSingle fits a single-parameter model, the building block of the
// multi-parameter heuristic.
func FitSingle(d *Dataset, param string) (*Model, error) {
	return extrap.ModelSingle(d, param, extrap.DefaultOptions())
}

// ExtractModels runs the end-to-end model-extraction pipeline on spec:
// taint run, streamed measurement sweep over cfg's design, incremental
// fitting, and the ranked ModelSet with clean-vs-tainted parameter
// attribution — the paper's output artifact. onEvent (optional)
// observes progress. It is the programmatic equivalent of
// `perftaint model -config ...`.
func ExtractModels(ctx context.Context, spec *Spec, cfg ModelConfig, onEvent func(ModelEvent)) (*ModelSet, error) {
	p, err := core.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return modelreg.Extract(ctx, runner.New(), p, cfg, onEvent)
}

// RenderModelMarkdown renders a model set as the Markdown report
// `perftaint report` emits.
func RenderModelMarkdown(ms *ModelSet) string { return modelreg.RenderMarkdown(ms) }

// RenderModelHTML renders a model set as a self-contained HTML page.
func RenderModelHTML(ms *ModelSet) string { return modelreg.RenderHTML(ms) }
