// Command perftaint runs the taint-analysis pipeline on a bundled
// application and emits a JSON report: per-function parameter dependencies,
// symbolic volumes, the pruning census, and the instrumentation filter.
//
// The analyze subcommand is the front door: without -addr it runs the
// pipeline in-process, with -addr it submits to a daemon — same report
// either way. Every subcommand that talks to a daemon takes the same
// -addr flag and accepts a base URL or a bare host:port. perftaint is the
// client and local-analysis CLI only; the daemon is cmd/perftaintd.
//
//	perftaint analyze -app lulesh                  # local analysis
//	perftaint analyze -addr host:7070 -app lulesh -config p=16
//	perftaint submit -addr host:7070 -app lulesh -config p=16
//	perftaint submit -addr ... -app lulesh -sweep 'p=2,4,8;size=4,5'
//	perftaint submit -addr ... -app milc -async    # prints a queued job
//	perftaint job -addr ... -id job-1 -wait        # poll it to completion
//	perftaint stats -addr host:7070
//
// The model subcommand runs the end-to-end sweep→fit pipeline (locally
// or against a daemon) and emits the model set as JSON; report renders
// that JSON as Markdown and/or self-contained HTML:
//
//	perftaint model -config examples/modeling/lulesh.json | perftaint report
//	perftaint model -config ... -addr http://host:7070 > models.json
//	perftaint report -in models.json -html report.html > report.md
//
// The corpus subcommand rebuilds the generated validation corpus
// (internal/appgen), scores end-to-end model recovery against the
// analytic ground truth, and checks the result against the blessed
// manifest — the CI corpus-smoke gate:
//
//	perftaint corpus                                   # check, exit 1 on violation
//	perftaint corpus -report corpus_report.json        # also dump the scored corpus
//	perftaint corpus -update                           # re-bless the manifest
//
// The fit subcommand is the fitter on its own: it reads a JSON measurement
// file (-in, default stdin) and prints the selected PMNF model with its
// SMAPE and cross-validation error:
//
//	{
//	  "params": ["p", "size"],
//	  "points": [
//	    {"params": {"p": 4, "size": 32}, "values": [1.02, 0.98, 1.01]},
//	    ...
//	  ],
//	  "allowed": ["size"]          // optional white-box prior
//	}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// jsonReport is the daemon's wire projection plus the CLI-only tainted
// selection dump — one projection (api.NewAnalysisResult) feeds both
// surfaces, so the golden snapshots gate them together.
type jsonReport struct {
	api.AnalysisResult
	Selections []string `json:"tainted_selections"`
}

// usage is printed (exit 2) when no known subcommand is named; bare
// flags are not a mode.
const usage = `usage: perftaint <subcommand> [flags]

  analyze   run one analysis (in-process, or on a daemon with -addr)
  submit    submit a configuration or a sweep to a daemon
  job       fetch (or wait for) a daemon job
  stats     print a daemon's counters
  model     extract performance models (in-process, or on a daemon with -addr)
  report    render a model set as Markdown and/or HTML
  corpus    score the generated validation corpus against its manifest
  fit       fit a PMNF model to a JSON measurement file

Run 'perftaint <subcommand> -h' for a subcommand's flags.
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("perftaint: ")
	subcommands := map[string]func([]string){
		"analyze": runAnalyze, "submit": runSubmit, "stats": runStats,
		"job": runJob, "model": runModel, "report": runReport, "corpus": runCorpus,
		"fit": runFit,
	}
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
		if !strings.HasPrefix(os.Args[1], "-") {
			log.Printf("unknown subcommand %q", os.Args[1])
		}
	}
	fmt.Fprint(os.Stderr, usage)
	os.Exit(2)
}

// runAnalyze runs one analysis: in-process when -addr is empty, against
// a daemon otherwise. The local and remote paths share the daemon's
// config overlay and wire projection, so the JSON report is the same
// shape (the local run additionally dumps the tainted selections, which
// never cross the wire).
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("perftaint analyze", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon base URL or host:port; empty analyzes in-process")
	app := fs.String("app", "lulesh", "application to analyze: lulesh or milc")
	cfgFlag := fs.String("config", "", "config overrides, e.g. 'p=16,size=5' (empty = app taint config)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-job deadline sent to the daemon (remote only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the analysis to this file (local only)")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after the analysis) to this file (local only)")
	retries := retriesFlag(fs)
	fs.Parse(args)

	overrides, err := parseConfig(*cfgFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *addr != "" {
		if *cpuProfile != "" || *memProfile != "" {
			log.Fatal("-cpuprofile/-memprofile profile the in-process analysis; they cannot profile a remote daemon (use its -pprof listener)")
		}
		job, err := newClient(*addr, *retries).Analyze(context.Background(), api.AnalyzeRequest{
			App:       *app,
			Config:    overrides,
			TimeoutMS: timeout.Milliseconds(),
		})
		if err != nil {
			log.Fatal(err)
		}
		emitJSON(job)
		if job.Status != api.StatusDone {
			os.Exit(1)
		}
		return
	}
	analyzeLocal(*app, overrides, *cpuProfile, *memProfile)
}

// analyzeLocal is the in-process pipeline behind `perftaint analyze`
// without -addr.
func analyzeLocal(appName string, overrides apps.Config, cpuProfile, memProfile string) {
	app, ok := service.BundledApps()[appName]
	if !ok {
		log.Fatalf("unknown app %q (want lulesh or milc)", appName)
	}
	// The daemon's overlay+validation, so a config the daemon would
	// reject fails identically here.
	cfg, err := service.MergedTaintConfig(app, overrides)
	if err != nil {
		log.Fatal(err)
	}
	spec := app.New()

	// Profiling hooks: the tainted run is the hot path of the whole system,
	// and every past speedup here started from a profile, not a guess.
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Printf("wrote CPU profile to %s (inspect with: go tool pprof %s)", cpuProfile, cpuProfile)
		}()
	}

	prep, err := core.Prepare(spec)
	if err != nil {
		pprof.StopCPUProfile()
		log.Fatal(err)
	}
	rep, err := prep.Analyze(cfg)
	if err != nil {
		// log.Fatal skips defers; flush the CPU profile first so a failing
		// run — the one most worth profiling — still leaves a usable file.
		pprof.StopCPUProfile()
		log.Fatal(err)
	}

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // flush recently freed objects so the profile shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		f.Close()
		log.Printf("wrote allocation profile to %s (inspect with: go tool pprof %s)", memProfile, memProfile)
	}

	out := jsonReport{
		AnalysisResult: *api.NewAnalysisResult(appName, core.SpecDigest(spec), rep,
			api.DefaultCensusParams()),
	}
	for _, sel := range rep.Engine.TaintedSelections() {
		out.Selections = append(out.Selections,
			fmt.Sprintf("%s@block%d params=%s", sel.Key.Func, sel.Key.Block,
				rep.Engine.Table.ExpandString(sel.Labels)))
	}

	emitJSON(out)
}

// runSubmit sends one analysis or a sweep to a running daemon.
func runSubmit(args []string) {
	fs := flag.NewFlagSet("perftaint submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "daemon base URL or host:port")
	app := fs.String("app", "lulesh", "registered application name")
	cfgFlag := fs.String("config", "", "config overrides, e.g. 'p=16,size=5' (empty = app taint config)")
	sweepFlag := fs.String("sweep", "", "sweep axes, e.g. 'p=2,4,8;size=4,5' (switches to /v1/sweep)")
	async := fs.Bool("async", false, "submit without waiting; prints the queued job")
	timeout := fs.Duration("timeout", 60*time.Second, "per-job deadline sent to the daemon")
	retries := retriesFlag(fs)
	fs.Parse(args)

	client := newClient(*addr, *retries)
	ctx := context.Background()

	if *sweepFlag != "" {
		if *async {
			log.Fatal("-async applies to single submissions only; sweeps always stream")
		}
		axes, err := parseAxes(*sweepFlag)
		if err != nil {
			log.Fatal(err)
		}
		defaults, err := parseConfig(*cfgFlag)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		failed := 0
		err = client.Sweep(ctx, api.SweepRequest{
			App:       *app,
			Defaults:  defaults,
			Axes:      axes,
			TimeoutMS: timeout.Milliseconds(),
		}, func(line api.SweepLine) error {
			if line.Error != "" {
				failed++
			}
			return enc.Encode(&line)
		})
		if err != nil {
			log.Fatal(err)
		}
		if failed > 0 {
			log.Fatalf("%d sweep configuration(s) failed", failed)
		}
		return
	}

	overrides, err := parseConfig(*cfgFlag)
	if err != nil {
		log.Fatal(err)
	}
	job, err := client.Analyze(ctx, api.AnalyzeRequest{
		App:       *app,
		Config:    overrides,
		Async:     *async,
		TimeoutMS: timeout.Milliseconds(),
	})
	if err != nil {
		log.Fatal(err)
	}
	emitJSON(job)
	if !*async && job.Status != api.StatusDone {
		os.Exit(1)
	}
}

// runJob fetches (or waits out) a job submitted with -async.
func runJob(args []string) {
	fs := flag.NewFlagSet("perftaint job", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "daemon base URL or host:port")
	id := fs.String("id", "", "job id, e.g. job-1")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal status")
	waitFor := fs.Duration("wait-timeout", 5*time.Minute, "give up polling after this long")
	retries := retriesFlag(fs)
	fs.Parse(args)
	if *id == "" {
		log.Fatal("job requires -id (as printed by submit -async)")
	}
	client := newClient(*addr, *retries)
	ctx := context.Background()
	var (
		info *api.JobInfo
		err  error
	)
	if *wait {
		wctx, cancel := context.WithTimeout(ctx, *waitFor)
		defer cancel()
		info, err = client.WaitJob(wctx, *id, 100*time.Millisecond)
	} else {
		info, err = client.Job(ctx, *id)
	}
	if err != nil {
		log.Fatal(err)
	}
	emitJSON(info)
	if *wait && info.Status != api.StatusDone {
		os.Exit(1)
	}
}

// runModel runs the end-to-end model extraction described by a JSON
// config file — sweep the design, stream the results into the
// incremental fitter, emit the ranked model set as JSON on stdout —
// either locally (default) or through a daemon's POST /v1/models.
// Progress goes to stderr so the JSON artifact stays pipeable into
// `perftaint report`.
func runModel(args []string) {
	fs := flag.NewFlagSet("perftaint model", flag.ExitOnError)
	cfgPath := fs.String("config", "", "modeling config JSON (see examples/modeling/lulesh.json)")
	addr := fs.String("addr", "", "daemon base URL or host:port; empty runs the sweep in-process")
	workers := fs.Int("workers", 0, "local sweep/fit concurrency (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress progress output")
	retries := retriesFlag(fs)
	fs.Parse(args)
	if *cfgPath == "" {
		log.Fatal("model requires -config FILE (a modelreg.Config JSON document)")
	}
	cfg, err := loadModelConfig(*cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	progress := func(ev modelreg.Event) {
		if *quiet {
			return
		}
		switch ev.Type {
		case "taint":
			log.Printf("taint run done: %d of %d functions relevant; sweeping %d design points",
				ev.Relevant, ev.Functions, ev.Total)
		case "point":
			log.Printf("point %d/%d done (%d instructions)", ev.Points, ev.Total, ev.Instructions)
		case "refit":
			log.Printf("refit at %d/%d points: %d datasets fittable, %d not",
				ev.Points, ev.Total, ev.Fitted, ev.Failed)
		}
	}

	ms, cached, err := extractModel(cfg, *addr, *workers, *retries, progress)
	if err != nil {
		log.Fatalf("%s: %v", *cfgPath, err)
	}
	if !*quiet && cached {
		log.Printf("served from the model registry (key %s)", ms.Key)
	}
	emitJSON(ms)
}

// loadModelConfig reads a modeling config file; a field the config does
// not have is a typo, not an extension.
func loadModelConfig(path string) (modelreg.Config, error) {
	var cfg modelreg.Config
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parse %s: %w", path, err)
	}
	return cfg, nil
}

// extractModel runs the extraction cfg describes in process or, with addr
// set, through that daemon's POST /v1/models. Both paths resolve the same
// design — one defaults overlay, one digest — so they return the same set
// under the same key; cached reports a daemon registry hit.
func extractModel(cfg modelreg.Config, addr string, workers, retries int, progress func(modelreg.Event)) (ms *modelreg.ModelSet, cached bool, err error) {
	if addr != "" {
		if cfg.App == "" {
			return nil, false, errors.New(`"app" is required when submitting to a daemon`)
		}
		resp, err := newClient(addr, retries).ModelsStream(context.Background(), api.NewModelRequest(cfg), progress)
		if err != nil {
			return nil, false, err
		}
		return resp.ModelSet, resp.Cached, nil
	}
	app, ok := service.BundledApps()[cfg.App]
	if !ok {
		return nil, false, fmt.Errorf("unknown app %q (want lulesh or milc)", cfg.App)
	}
	prep, err := core.Prepare(app.New())
	if err != nil {
		return nil, false, err
	}
	ms, err = modelreg.Extract(context.Background(), &runner.Runner{Workers: workers}, prep,
		service.ResolveModelDefaults(app, cfg), progress)
	return ms, false, err
}

// runReport renders a model-set JSON document (stdin or -in) as
// Markdown on stdout and, optionally, as a self-contained HTML file.
func runReport(args []string) {
	fs := flag.NewFlagSet("perftaint report", flag.ExitOnError)
	in := fs.String("in", "", "model-set JSON file (default: stdin)")
	htmlOut := fs.String("html", "", "also write a self-contained HTML report to this file")
	fs.Parse(args)
	raw, err := readInput(*in)
	if err != nil {
		log.Fatal(err)
	}
	// Accept either the bare model set (`perftaint model` output) or the
	// daemon's response envelope ({"model_set": {...}}).
	var env struct {
		ModelSet *modelreg.ModelSet `json:"model_set"`
	}
	var ms modelreg.ModelSet
	if err := json.Unmarshal(raw, &env); err == nil && env.ModelSet != nil {
		ms = *env.ModelSet
	} else if err := json.Unmarshal(raw, &ms); err != nil {
		log.Fatalf("parse model set: %v (pipe `perftaint model` output or pass -in)", err)
	}
	if len(ms.Functions) == 0 {
		log.Fatal("model set is empty (is the input really `perftaint model` or /v1/models output?)")
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(modelreg.RenderHTML(&ms)), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote HTML report to %s", *htmlOut)
	}
	fmt.Print(modelreg.RenderMarkdown(&ms))
}

// runCorpus rebuilds and scores the generated validation corpus, then
// either re-blesses the manifest (-update) or checks the fresh scores
// against it, exiting nonzero on any violation.
func runCorpus(args []string) {
	fs := flag.NewFlagSet("perftaint corpus", flag.ExitOnError)
	manifest := fs.String("manifest", "internal/appgen/testdata/corpus_v1.json",
		"blessed corpus manifest path")
	update := fs.Bool("update", false, "rewrite the manifest from the fresh build instead of checking")
	report := fs.String("report", "", "write the freshly scored corpus as JSON to this file")
	verbose := fs.Bool("v", false, "print per-entry scores")
	fs.Parse(args)

	built, err := appgen.BuildCorpus(context.Background(), runner.New())
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		for _, e := range built.Entries {
			log.Printf("%-18s funcs=%d precision=%.3f recall=%.3f terms=%d/%d win=%d/%d pruned=%d",
				e.App, e.Functions, e.Precision, e.Recall,
				e.TermAgree, e.TermChecked, e.WinNoWorse, e.WinComparable, e.PrunedNoise)
		}
	}
	if *report != "" {
		if err := appgen.SaveCorpus(*report, built); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote scored corpus to %s", *report)
	}
	if *update {
		if err := appgen.SaveCorpus(*manifest, built); err != nil {
			log.Fatal(err)
		}
		log.Printf("re-blessed %s with %d entries", *manifest, len(built.Entries))
		return
	}
	blessed, err := appgen.LoadCorpus(*manifest)
	if err != nil {
		log.Fatal(err)
	}
	violations := blessed.Check(built)
	for _, v := range violations {
		log.Printf("violation: %s", v)
	}
	if len(violations) > 0 {
		log.Fatalf("corpus gate FAILED: %d violation(s) against %s", len(violations), *manifest)
	}
	log.Printf("corpus gate passed: %d entries, %d archetypes", len(built.Entries), len(appgen.Archetypes()))
}

// runStats prints the daemon's cache and scheduler counters.
func runStats(args []string) {
	fs := flag.NewFlagSet("perftaint stats", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "daemon base URL or host:port")
	retries := retriesFlag(fs)
	fs.Parse(args)
	st, err := newClient(*addr, *retries).Stats(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	emitJSON(st)
}

// retriesFlag registers the shared -retries flag every remote subcommand
// carries: how many times the client resubmits a failed or broken-off
// request before giving up. Sweeps reconnect with Last-Seq so a retried
// stream resumes where it left off instead of replaying from the start.
func retriesFlag(fs *flag.FlagSet) *int {
	return fs.Int("retries", 3, "client retries on transport errors and retryable statuses (0 = fail fast); sweep reconnects resume mid-stream")
}

// newClient builds the daemon client for a subcommand, honoring -retries.
func newClient(addr string, retries int) *service.Client {
	c := service.NewClient(addr)
	c.Retries = retries
	return c
}

// parseConfig reads "k=v,k=v" into overrides.
func parseConfig(s string) (apps.Config, error) {
	if s == "" {
		return nil, nil
	}
	out := make(apps.Config)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad config entry %q (want name=value)", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad config value %q: %v", kv, err)
		}
		out[k] = f
	}
	return out, nil
}

// parseAxes reads "p=2,4,8;size=4,5" into sweep axes.
func parseAxes(s string) ([]runner.Axis, error) {
	var out []runner.Axis
	for _, part := range strings.Split(s, ";") {
		name, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad axis %q (want name=v1,v2,...)", part)
		}
		ax := runner.Axis{Param: name}
		for _, v := range strings.Split(vals, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("bad axis value %q: %v", v, err)
			}
			ax.Values = append(ax.Values, f)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", name)
		}
		out = append(out, ax)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep specification")
	}
	return out, nil
}

// readInput reads the file an -in flag names, or stdin when it is empty.
func readInput(path string) ([]byte, error) {
	if path == "" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}
