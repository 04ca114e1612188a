package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/service"
)

// env is what a workload's set-up gets: the seed every input derives
// from, a private scratch directory inside the checkout, and the
// repository root (for the committed golden snapshot).
type env struct {
	seed  int64
	dir   string
	root  string
	trace bool
}

// workload is one named set of inputs. The names are final: later
// issues cite them.
type workload struct {
	name    string
	why     string // recorded verbatim in BENCHMARK.json
	clients int
	// rate is the nominal ops per second on the reference machine, frozen
	// here: a window issues rate x seconds ops, so every run of one seed
	// does the same work however fast the code under test is.
	rate  float64
	setup func(ctx context.Context, e env) (instance, error)
}

// opsFor is the op count of a window of the given nominal length.
func (w workload) opsFor(seconds float64) int {
	return max(2*w.clients, int(w.rate*seconds+0.5))
}

var workloads = []workload{
	{
		name:    "lulesh-large",
		rate:    1.8,
		clients: 1,
		setup:   setupLuleshLarge,
		why: "Closed loop, 1 caller, in process: modelreg.Extract on memory-warm LULESH, p{2..16} x size{11..17}, reps 3. " +
			"The tainted interpreter is ~3/4 of the op; service, journal and shard layers idle.",
	},
	{
		name:    "corpus-small",
		rate:    55,
		clients: 1,
		setup:   setupCorpusSmall,
		why: "Closed loop, 1 caller, in process: cold core.Prepare + Extract of seeded appgen apps, 12-36 points each. " +
			"Interp is a minority; fan-out, measurement synthesis and fitting carry the op.",
	},
	{
		name:    "daemon-journaled",
		rate:    4,
		clients: 2,
		setup:   setupDaemonJournaled,
		why: "Closed loop, 2 clients, loopback daemon with journal: op = streamed /v1/models (fresh seed, registry miss) then " +
			"/v1/sweep on small LULESH points. Write path: fsync per point, NDJSON.",
	},
	{
		name:    "daemon-readmostly",
		rate:    210,
		clients: 2,
		setup:   setupDaemonReadMostly,
		why: "Closed loop, 2 clients, daemon with 4 registry entries, 8 warmed designs: 60% repeated /v1/models (memory and " +
			"disk hits), 30% /v1/analyze, 5% GET by key, 5% /v1/stats. Read path.",
	},
	{
		name:    "cluster-sharded",
		rate:    1.5,
		clients: 1,
		setup:   setupClusterSharded,
		why: "Closed loop, 1 client, coordinator + 2 workers over loopback, no journal: op = streamed /v1/models then " +
			"/v1/sweep on 24 mid-size LULESH points. Shard cutting, wire and merge.",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// luleshApp is the daemon's own registry entry, so in-process references
// resolve defaults exactly as a request to the daemon does.
var luleshApp = service.BundledApps()["lulesh"]

// luleshDesign is a LULESH modeling design over p and size with the
// non-swept parameters at the taint-run defaults.
func luleshDesign(ps, sizes []float64, seed int64) modelreg.Config {
	return service.ResolveModelDefaults(luleshApp, modelreg.Config{
		App:    "lulesh",
		Params: []string{"p", "size"},
		Axes: []modelreg.Axis{
			{Param: "p", Values: ps},
			{Param: "size", Values: sizes},
		},
		Reps:    3,
		Seed:    seed,
		Batch:   5,
		Metrics: []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	})
}

// goldenSnapshot mirrors internal/core's committed snapshot format.
type goldenSnapshot struct {
	Census       core.Census         `json:"census"`
	FuncDeps     map[string][]string `json:"func_deps"`
	Instructions int64               `json:"instructions"`
}

// prepareLULESH prepares the shared LULESH spec and checks the analysis
// of the paper's taint run against the committed expected file: census,
// per-function dependencies, and the exact instruction count.
func prepareLULESH(root string) (*core.Prepared, error) {
	prep, err := core.Prepare(apps.LULESH())
	if err != nil {
		return nil, err
	}
	rep, err := prep.Analyze(apps.LULESHTaintConfig())
	if err != nil {
		return nil, err
	}
	path := filepath.Join(root, "internal", "core", "testdata", "lulesh_golden.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var want goldenSnapshot
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	got := goldenSnapshot{Census: rep.Census([]string{"p", "size"}), FuncDeps: rep.FuncDeps, Instructions: rep.Instructions}
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("LULESH taint run differs from %s (instructions %d, want %d)", path, got.Instructions, want.Instructions)
	}
	return prep, nil
}

// inProcess is what the two workloads without a daemon share: nothing to
// check after the window, nothing to stop, no service to probe.
type inProcess struct{}

func (inProcess) finish(context.Context) error { return nil }
func (inProcess) close()                       {}
func (inProcess) service() *serviceView        { return nil }

// --- lulesh-large ---

// seedPeriod is how many distinct modeling seeds lulesh-large cycles
// through: ops i and i+seedPeriod must produce identical bytes.
const seedPeriod = 20

type luleshLarge struct {
	inProcess
	seed  int64
	prep  *core.Prepared
	first map[int][]byte // marshaled model set per seed residue; deferred checks run one at a time
}

func (l *luleshLarge) extraction(i int) extraction {
	cfg := luleshDesign([]float64{2, 4, 8, 16}, []float64{11, 13, 15, 17}, l.seed+int64(i%seedPeriod))
	return extraction{spec: l.prep.Spec, prep: l.prep, cfg: cfg}
}

func setupLuleshLarge(ctx context.Context, e env) (instance, error) {
	prep, err := prepareLULESH(e.root)
	if err != nil {
		return nil, err
	}
	l := &luleshLarge{seed: e.seed, prep: prep, first: make(map[int][]byte)}
	// Warm-up op: its bytes are the reference op 0 (same seed) must hit.
	check, err := l.op(ctx, 0, 0)
	if err != nil {
		return nil, err
	}
	return l, check()
}

func (l *luleshLarge) op(ctx context.Context, _, i int) (func() error, error) {
	ms, err := l.extraction(i).extract(ctx, 2)
	if err != nil {
		return nil, err
	}
	return func() error {
		raw, err := json.Marshal(ms)
		if err != nil {
			return err
		}
		r := i % seedPeriod
		if l.first[r] == nil {
			l.first[r] = raw
		} else if !bytes.Equal(l.first[r], raw) {
			return fmt.Errorf("model set differs from an earlier extraction with the same modeling seed")
		}
		return nil
	}, nil
}

// --- corpus-small ---

// corpusSeeds is how many generator seeds per archetype the pool holds;
// op i takes app i mod (5 * corpusSeeds).
const corpusSeeds = 40

type corpusSmall struct {
	inProcess
	pool []*appgen.App
}

func setupCorpusSmall(ctx context.Context, e env) (instance, error) {
	c := &corpusSmall{}
	for s := int64(0); s < corpusSeeds; s++ {
		for _, arch := range appgen.Archetypes() {
			app, err := appgen.Generate(arch, e.seed+s)
			if err != nil {
				// A seed the generator rejects is skipped, the same way on
				// every run, and listed.
				fmt.Fprintf(os.Stderr, "corpus-small: skipping %s/%d: %v\n", arch, e.seed+s, err)
				continue
			}
			c.pool = append(c.pool, app)
		}
	}
	if len(c.pool) == 0 {
		return nil, fmt.Errorf("appgen rejected every seed from %d on", e.seed)
	}
	check, err := c.op(ctx, 0, 0)
	if err != nil {
		return nil, err
	}
	return c, check()
}

func (c *corpusSmall) extraction(i int) extraction {
	app := c.pool[i%len(c.pool)]
	return extraction{spec: app.Spec, cfg: app.Design}
}

func (c *corpusSmall) op(ctx context.Context, _, i int) (func() error, error) {
	ms, err := c.extraction(i).extract(ctx, 2)
	if err != nil {
		return nil, err
	}
	app := c.pool[i%len(c.pool)]
	return func() error {
		// The analytic truth is an independent reimplementation of the
		// taint semantics, never the pipeline under test.
		sc, err := appgen.ScoreModelSet(app, ms)
		if err != nil {
			return err
		}
		if sc.Precision != 1 || sc.Recall != 1 {
			return fmt.Errorf("%s: dependency precision %.3f recall %.3f, want 1 and 1", app.Spec.Name, sc.Precision, sc.Recall)
		}
		return nil
	}, nil
}
