// Command benchmark is the cost ledger: it measures what a user pays for
// "request → ranked model set" end to end on five named workloads, and,
// in a separate traced pass, what each layer of the pipeline contributes.
// Every layer is measured from outside, by timing calls into its public
// functions. See README.md in this directory.
//
//	go run ./benchmark                      all five workloads, end to end
//	go run ./benchmark -trace 1             all five, traced per-layer pass
//	go run ./benchmark -workload corpus-small -seed 2 -seconds 12
//	go run ./benchmark -aa                  the suite twice; compares the two
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/leakcheck"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aa       bool
	// Only the smoke test sets these two: ops > 0 fixes the op count of
	// every window and runs set-up and every probe once; first is the
	// index of the first op.
	ops, first int
}

// count is the op count of a window that is share of the nominal length.
func (o options) count(w workload, share float64) int {
	if o.ops > 0 {
		return o.ops
	}
	return w.opsFor(o.seconds * share)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "timed window per workload")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	fs.BoolVar(&o.aa, "aa", false, "run the whole suite twice and compare the two runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, and there are no positional arguments")
		return 2
	}

	// Fixed conditions: the machine has 2 cores and every daemon runs in
	// this process, so 2 processors bound clients, daemons and analyses
	// together.
	runtime.GOMAXPROCS(2)

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ctx := context.Background()

	if o.aa {
		return runAA(ctx, o, root, outDir, stdout, stderr)
	}

	todo := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(ctx, w, o, root, outDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// runWorkload sets the workload up, runs one pass over it, tears
// everything down, and checks that nothing is left running.
func runWorkload(ctx context.Context, w workload, o options, root, outDir string, log io.Writer) (*result, error) {
	inst, setupS, tearDown, err := setUp(ctx, w, o, root, outDir)
	if err != nil {
		return nil, err
	}
	var res *result
	if o.trace {
		res, err = tracedPass(ctx, w, inst, o, outDir, log)
	} else {
		res, err = endToEndPass(ctx, w, inst, o, setupS, log)
	}
	if terr := tearDown(); err == nil {
		err = terr
	}
	return res, err
}

// minSetups is how many times a run sets its workload up; setup_s is
// the median. A set-up of a few dozen ms is repeated more often, up to
// maxSetups or a second's worth: its median would otherwise be
// scheduler noise.
const (
	minSetups = 3
	maxSetups = 25
)

// setUp sets the workload up several times, each in its own scratch
// directory under outDir, with a pause before and after each, and keeps
// the last. It returns the median set-up time at reference speed and the
// function that stops every server, removes the scratch files and checks
// for leaked goroutines.
func setUp(ctx context.Context, w workload, o options, root, outDir string) (instance, float64, func() error, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, 0, nil, err
	}
	var inst instance
	var setups, pauses []float64
	for k, total := 0, 0.0; k == 0 || o.ops <= 0 && (k < minSetups || k < maxSetups && total < 1); k++ {
		if inst != nil {
			inst.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			os.RemoveAll(dir)
			return nil, 0, nil, err
		}
		before := pause()
		t := time.Now()
		inst, err = w.setup(ctx, env{seed: o.seed, dir: sub, root: root, trace: o.trace})
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		total += d
		setups = append(setups, d)
		pauses = append(pauses, before, pause())
	}
	tearDown := func() error {
		inst.close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := leakcheck.Settle(5 * time.Second); err != nil {
			return fmt.Errorf("after teardown: %w", err)
		}
		return nil
	}
	// One factor for all the repetitions: a single pause that meets the
	// last set-up's daemons shutting down is far off, and the median over
	// all of them leaves it out.
	return inst, median(setups) * speed(pauses), tearDown, nil
}

// endToEndPass is the pass whose numbers are gated: tracing off, one
// timed closed-loop window.
func endToEndPass(ctx context.Context, w workload, inst instance, o options, setupS float64, log io.Writer) (*result, error) {
	win := drive(ctx, inst, w.clients, o.first, o.count(w, 1), o.seconds, nil)
	vals := endToEndValues(win, setupS)
	report(log, w.name, "end-to-end", endToEnd, vals)
	report(log, w.name, "client", clientDefs(), clientValues(win))
	for _, err := range win.errs {
		fmt.Fprintf(log, "%s: FAILED %v\n", w.name, err)
	}
	sealed, err := seal(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: win.failed == 0, Attempted: win.attempted(), Failed: win.failed, Metrics: sealed}, nil
}

// clientDefs are the registry rows of the reported-not-gated numbers
// that the end-to-end pass prints too.
func clientDefs() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if l := layerOf(d.Name); l == "client" || l == "process" {
			out = append(out, d)
		}
	}
	return out
}

// report prints every metric of defs that vals holds, by name, with its
// unit.
func report(log io.Writer, workload, pass string, defs []metricDef, vals map[string]float64) {
	names := make([]string, 0, len(defs))
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		if _, ok := vals[d.Name]; ok {
			names = append(names, d.Name)
			units[d.Name] = d.Unit
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "%-18s %-10s %-38s %14.6g %s\n", workload, pass, n, vals[n], units[n])
	}
}
