package core

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/scev"
	"repro/internal/taint"
)

// Prepared caches the per-spec artifacts that every configuration of a
// batch shares: the built and verified IR module, the library database,
// and the static classification of Section 5.1. Building the module and
// running the static pass dominate single-run latency, so preparing once
// and fanning the dynamic tainted runs out over configurations is what
// makes batch analysis scale (see internal/runner).
//
// A Prepared value is safe for concurrent use: every Analyze call creates
// its own interpreter machine and taint engine, and only reads the shared
// module, database, static maps, predecoded program and analysis plan, all
// immutable after construction. The memory a run works in is not created per
// call: the machine borrows it from the arena pool of the shared Program and
// returns it, zeroed, when the run ends (see interp.Program), so consecutive
// and concurrent Analyze calls recycle one arena per worker and a report
// never aliases it — the taint engine and its records are the call's own.
// The one thing that grows is the table of interned aggregation results:
// dependency maps, relevance set and volumes are a pure function of a run's
// per-loop label masks, so runs with equal masks — nearly every point of a
// sweep — share one immutable result.
// Reports therefore share FuncDeps, LoopDeps, LibDeps, Relevant and
// Volumes with other reports of the same Prepared and must treat them as
// read-only.
type Prepared struct {
	Spec   *apps.Spec
	Module *ir.Module
	DB     *libdb.DB

	// Digest is the content address of Spec (see SpecDigest): equal
	// digests mean interchangeable Prepared values, which is what lets
	// the service layer share one Prepared across tenants.
	Digest string

	// Static is the compile-time classification (Section 5.1), computed
	// exactly once per spec and shared read-only by every dynamic run.
	Static map[string]*scev.FuncClass

	// Program is the predecoded module for the fast interpreter, built once
	// per spec and shared read-only by every dynamic run of a batch.
	Program *interp.Program

	// Mode selects the interpreter engine for Analyze runs; the zero value
	// is the fast engine. The reference mode exists for differential and
	// oracle runs.
	Mode interp.Mode

	// plan is the module-only half of the aggregation stages and of the
	// census (call graph, bottom-up order, loop forests, static trips,
	// library volumes), derived from the same forests as Static and Program.
	plan *analysisPlan

	// interned holds the aggregation result of each distinct mask
	// signature seen so far (at most maxInterned); see aggregate.
	internMu sync.Mutex
	interned map[string]*aggregated
}

// Prepare builds the module from spec, verifies it against the default MPI
// library database, and runs the static pass — the spec-level half of the
// pipeline, independent of any configuration.
func Prepare(spec *apps.Spec) (*Prepared, error) {
	db := libdb.DefaultMPI()
	if err := validateTaintParams(spec); err != nil {
		return nil, err
	}
	mod, err := apps.BuildModule(spec)
	if err != nil {
		return nil, fmt.Errorf("core: build module: %w", err)
	}
	if err := ir.VerifyModule(mod, func(name string) bool {
		_, ok := db.Lookup(name)
		return ok
	}); err != nil {
		return nil, fmt.Errorf("core: verify module: %w", err)
	}
	return PrepareModule(spec, mod, db), nil
}

// validateTaintParams rejects specs whose distinct taint parameters — the
// declared spec parameters plus the implicit library parameter p — exceed
// the 64-bit mask budget of the taint engine. Catching this at Prepare time
// turns a would-be hot-loop panic into a typed, actionable error
// (taint.TooManyLabelsError) before any expensive work runs.
func validateTaintParams(spec *apps.Spec) error {
	distinct := make(map[string]bool, len(spec.Params)+1)
	for _, p := range spec.Params {
		distinct[p] = true
	}
	distinct[libdb.MPIParam] = true
	if n := len(distinct); n > taint.MaxBaseLabels {
		return fmt.Errorf("core: spec %q declares %d distinct taint parameters (including implicit %q): %w",
			spec.Name, n, libdb.MPIParam, &taint.TooManyLabelsError{Declared: n})
	}
	return nil
}

// PrepareModule runs the static pass over an already built and verified
// module, caching the artifacts for repeated dynamic runs. The CFGs and
// loop forests are built once and read by the static classification, the
// analysis plan and the predecoder alike.
func PrepareModule(spec *apps.Spec, mod *ir.Module, db *libdb.DB) *Prepared {
	forests := cfg.ModuleForests(mod)
	static := scev.AnalyzeForests(forests, db.Relevant)
	return &Prepared{
		Spec:    spec,
		Module:  mod,
		DB:      db,
		Digest:  SpecDigest(spec),
		Static:  static,
		Program: interp.PredecodeForests(mod, forests, static),
		plan:    newAnalysisPlan(mod, forests, static, db),
	}
}

// ConfigError reports a configuration Analyze cannot run: the implicit MPI
// parameter p is absent or not positive.
type ConfigError struct {
	// P is the offending value of p (zero when absent).
	P float64
}

// Error keeps the message the untyped error carried, which travels in
// sweep and shard lines.
func (e *ConfigError) Error() string { return "core: config missing implicit parameter p" }

// Analyze runs the per-configuration dynamic stage on the cached
// artifacts: the tainted execution, dependency aggregation, symbolic
// volumes, and the relevance filter. cfg must contain every spec parameter
// plus the implicit MPI parameter p; a configuration without a positive p
// is rejected with a *ConfigError before any per-run state is built.
// Analyze is safe to call from multiple goroutines on the same Prepared
// value.
func (p *Prepared) Analyze(cfg apps.Config) (*Report, error) {
	engine, res, err := p.run(cfg)
	if err != nil {
		return nil, err
	}
	return p.aggregate(engine, res.Instructions), nil
}

// run is stage 2 of Analyze, the dynamic taint analysis of one
// configuration: the taint engine it filled and the interpreter's account of
// the run. The predecoded program is shared across all concurrent runs of this
// Prepared, and recycling run memory is its business, inside Machine.Run:
// a machine per run is cheap, and there is no second pool here.
func (p *Prepared) run(cfg apps.Config) (*taint.Engine, *interp.Result, error) {
	pVal := int64(cfg["p"])
	if pVal <= 0 {
		return nil, nil, &ConfigError{P: cfg["p"]}
	}
	engine := taint.NewEngine()
	mach := interp.NewMachine(p.Module)
	mach.Taint = engine
	mach.Fuel = 4_000_000_000
	mach.Mode = p.Mode
	mach.Prog = p.Program
	p.DB.Bind(mach, engine, libdb.RunConfig{CommSize: pVal, Rank: 0})

	labels := make([]taint.Label, len(p.Spec.Params))
	for i, prm := range p.Spec.Params {
		labels[i] = engine.Table.Base(prm)
	}
	res, err := mach.Run("main", apps.TaintArgs(p.Spec, cfg), labels)
	if err != nil {
		return nil, nil, fmt.Errorf("core: tainted run: %w", err)
	}
	return engine, res, nil
}
