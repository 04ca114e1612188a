package modelreg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strconv"

	"repro/internal/apps"
	"repro/internal/runner"
)

// Metric names a per-function quantity the pipeline models over the
// design. Every metric yields one dataset (and so one fitted model pair)
// per function.
const (
	// MetricSeconds is the synthetic instrumented run time per function:
	// exclusive compute under contention plus direct communication plus
	// instrumentation intrusion, measured under the taint filter with
	// seeded noise (the quantity the paper's evaluation fits).
	MetricSeconds = "seconds"
	// MetricIterations is the per-function dynamic loop iteration count
	// summed over calling contexts, taken from the tainted interpreter
	// run at each design point — the empirical counterpart of the
	// symbolic volume g(p1..pn).
	MetricIterations = "iterations"
)

// Axis is an alias name of runner.Axis, kept only because benchmark/
// spells it (ROADMAP item 1 drops it).
type Axis = runner.Axis

// Config declares one model-extraction run: the design to sweep, the
// parameters to model over, and the fitting cadence. Resolve fills the
// zero values of the optional fields and rejects designs the pipeline
// cannot fit. Config round-trips through JSON — it
// is the body of the CLI's -config file and part of the service's
// POST /v1/models request.
type Config struct {
	// App names the registered application (CLI and service surface);
	// the pipeline itself works off a core.Prepared and ignores it
	// except as report metadata.
	App string `json:"app,omitempty"`
	// Params are the parameters models are expressed in (e.g. p, size).
	// Every entry must be swept by an axis.
	Params []string `json:"params"`
	// Defaults pins the non-swept spec parameters during the sweep.
	Defaults apps.Config `json:"defaults,omitempty"`
	// Axes span the full-factorial design, last axis varying fastest.
	Axes []Axis `json:"axes"`
	// Reps is the number of repeated measurements per design point
	// (default 5, the paper's choice).
	Reps int `json:"reps,omitempty"`
	// Seed feeds the deterministic measurement noise; each design point
	// derives its own stream from Seed and its index, so concurrent and
	// sequential sweeps measure identical values (default 1).
	Seed int64 `json:"seed,omitempty"`
	// RelNoise is the relative measurement noise level (default 0.02).
	RelNoise float64 `json:"rel_noise,omitempty"`
	// Batch is the refit-event cadence: after every Batch completed
	// design points the pipeline reports how many primary-metric
	// datasets are fittable so far (default 5; 0 keeps the default,
	// negative disables refit events).
	Batch int `json:"batch,omitempty"`
	// Metrics selects the modeled quantities (default: seconds and
	// iterations). The first metric ranks the report.
	Metrics []string `json:"metrics,omitempty"`
}

// withDefaults fills the optional fields. An empty Params defaults to
// the axis parameters in axis order, so every surface (CLI, daemon,
// library) accepts the same minimal config.
func (c Config) withDefaults() Config {
	if len(c.Params) == 0 {
		for _, ax := range c.Axes {
			c.Params = append(c.Params, ax.Param)
		}
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RelNoise == 0 {
		c.RelNoise = 0.02
	}
	if c.Batch == 0 {
		c.Batch = 5
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []string{MetricSeconds, MetricIterations}
	}
	return c
}

// Resolved is a Config that went through Resolve against one spec: every
// optional field filled, the design legal and sized, the digest taken.
// It is the only input the pipeline accepts, so a caller that resolves a
// request once (the daemon's handler, to answer 400 and to address the
// registry) and the pipeline it later starts cannot disagree.
type Resolved struct {
	Config
	// Digest is DesignDigest of the filled config.
	Digest string

	grid runner.Design
}

// Resolve is the one front door of a modeling config: defaults filled,
// then the design checked by runner.Design.Check against spec and the
// caller's point cap (runner.MaxPoints in process, the daemon's
// MaxSweepConfigs behind POST /v1/models), then what only a modeling
// design must satisfy on top — every model parameter swept by an axis,
// every metric known — then digested.
func (c Config) Resolve(spec *apps.Spec, max int) (*Resolved, error) {
	c = c.withDefaults()
	grid := runner.Design{Spec: spec, Defaults: c.Defaults, Axes: c.Axes}
	if _, err := grid.Check(max); err != nil {
		return nil, err
	}
	for _, prm := range c.Params {
		if !slices.ContainsFunc(c.Axes, func(ax Axis) bool { return ax.Param == prm }) {
			return nil, fmt.Errorf("modelreg: model parameter %q is not swept by any axis", prm)
		}
	}
	for _, m := range c.Metrics {
		if m != MetricSeconds && m != MetricIterations {
			return nil, fmt.Errorf("modelreg: unknown metric %q (want %q or %q)", m, MetricSeconds, MetricIterations)
		}
	}
	return &Resolved{Config: c, Digest: DesignDigest(c), grid: grid}, nil
}

// Key is the registry key of the resolved design for a spec digest: the
// value of the package-level Key, without digesting the design again.
func (r *Resolved) Key(specDigest string) string { return key(specDigest, r.Digest) }

// designDigestVersion salts every design digest; bump it when the
// pipeline's fitting semantics change so stale cached model sets are
// never served for new behaviour.
const designDigestVersion = "perftaint-modelset-v2"

// DesignDigest returns the canonical content address of the modeling
// design: a hex SHA-256 over every field that influences the fitted
// models (axes in sweep order, defaults, repetitions, seed, noise,
// metrics, model parameters). Batch is deliberately excluded — the
// refit cadence shapes progress events, never the final model set, so
// two configs differing only in Batch share one registry entry. Two
// configs that expand to the same design hash identically regardless of
// map iteration order.
func DesignDigest(c Config) string {
	c = c.withDefaults()
	h := sha256.New()
	w := digestWriter{h: h}
	w.str(designDigestVersion)
	w.str(c.App)
	w.strs(c.Params)
	keys := make([]string, 0, len(c.Defaults))
	for k := range c.Defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.num(len(keys))
	for _, k := range keys {
		w.str(k)
		w.f64(c.Defaults[k])
	}
	w.num(len(c.Axes))
	for _, ax := range c.Axes {
		w.str(ax.Param)
		w.num(len(ax.Values))
		for _, v := range ax.Values {
			w.f64(v)
		}
	}
	w.num(c.Reps)
	w.num(int(c.Seed))
	w.f64(c.RelNoise)
	w.strs(c.Metrics)
	return hex.EncodeToString(h.Sum(nil))
}

// Key combines a spec's content digest with a design digest into the
// registry key: equal keys mean the sweep and fit would reproduce the
// exact same model set, which is what makes the registry safe to share
// across tenants.
func Key(specDigest string, c Config) string { return key(specDigest, DesignDigest(c)) }

func key(specDigest, designDigest string) string {
	h := sha256.New()
	w := digestWriter{h: h}
	w.str(designDigestVersion)
	w.str(specDigest)
	w.str(designDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// digestWriter streams a self-delimiting canonical encoding into a hash
// (the same framing discipline as core.SpecDigest).
type digestWriter struct{ h hash.Hash }

func (w digestWriter) str(s string) { fmt.Fprintf(w.h, "s%d:%s;", len(s), s) }
func (w digestWriter) num(n int)    { fmt.Fprintf(w.h, "n%d;", n) }
func (w digestWriter) f64(v float64) {
	fmt.Fprintf(w.h, "f%s;", strconv.FormatFloat(v, 'g', -1, 64))
}
func (w digestWriter) strs(ss []string) {
	w.num(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}
