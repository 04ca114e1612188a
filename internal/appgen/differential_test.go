package appgen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/modelreg"
	"repro/internal/noise"
	"repro/internal/runner"
)

// loopDump renders a report's dynamic loop records with labels expanded
// to parameter names, so dumps are comparable across engines whose
// label tables may materialize different intermediate ids.
func loopDump(r *core.Report) string {
	e := r.Engine
	var sb strings.Builder
	fmt.Fprintf(&sb, "instr=%d\n", r.Instructions)
	for _, rec := range e.SortedLoops() {
		fmt.Fprintf(&sb, "loop %s#%d@%d path=%s labels=%v iter=%d entries=%d\n",
			rec.Key.Func, rec.Key.LoopID, rec.Header, rec.Key.CallPath,
			e.Table.Expand(rec.Labels), rec.Iterations, rec.Entries)
	}
	return sb.String()
}

// TestDifferentialGeneratedApps runs generated apps of every archetype
// through the analysis pipeline under both interpreter engines and
// requires identical observations: instruction counts, loop records
// (compared by expanded label names), dependency maps, and the relevant
// set. The bundled-app differential test in internal/core pins the two
// hand-written reproductions; this one sweeps the randomized population,
// including structures the curated apps never exercise (divided bounds
// under branches, multiplicity-only branch arms).
func TestDifferentialGeneratedApps(t *testing.T) {
	for _, arch := range Archetypes() {
		for seed := int64(1); seed <= 4; seed++ {
			app, err := Generate(arch, seed)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", arch, seed, err)
			}
			// The axis-maximum corner flips every branch arm the base
			// corner leaves untaken while staying cheap enough for the
			// tree-walking reference engine.
			for _, cfg := range []apps.Config{BaseConfig(app.Design), maxConfig(app.Design)} {
				p, err := core.Prepare(app.Spec)
				if err != nil {
					t.Fatalf("%s: prepare: %v", app.Spec.Name, err)
				}
				fast, err := p.Analyze(cfg)
				if err != nil {
					t.Fatalf("%s: fast analyze: %v", app.Spec.Name, err)
				}
				p.Mode = interp.ModeReference
				ref, err := p.Analyze(cfg)
				if err != nil {
					t.Fatalf("%s: reference analyze: %v", app.Spec.Name, err)
				}
				if fd, rd := loopDump(fast), loopDump(ref); fd != rd {
					t.Errorf("%s @ %v: loop records diverged:\n--- reference ---\n%s--- fast ---\n%s",
						app.Spec.Name, cfg, rd, fd)
				}
				for _, m := range []struct {
					name      string
					fast, ref map[string][]string
				}{
					{"FuncDeps", fast.FuncDeps, ref.FuncDeps},
					{"LoopDeps", fast.LoopDeps, ref.LoopDeps},
					{"LibDeps", fast.LibDeps, ref.LibDeps},
				} {
					if !reflect.DeepEqual(m.fast, m.ref) {
						t.Errorf("%s @ %v: %s diverged:\nfast: %v\nreference: %v",
							app.Spec.Name, cfg, m.name, m.fast, m.ref)
					}
				}
				if !reflect.DeepEqual(fast.Relevant, ref.Relevant) {
					t.Errorf("%s @ %v: Relevant diverged: fast %v, reference %v",
						app.Spec.Name, cfg, fast.Relevant, ref.Relevant)
				}
			}
		}
	}
}

// maxConfig is the design corner with every axis at its maximum swept
// value (unlike ProbeConfig, which doubles it).
func maxConfig(c modelreg.Config) apps.Config {
	return runner.Design{Defaults: c.Defaults, Axes: c.Axes}.Corner(true)
}

// TestMeasureMatchesEvaluate pins the property tying the two ground-truth
// layers together: a noise-free, uninstrumented cluster measurement at
// one rank per node must reproduce the analytic apps.Plan.Evaluate ground
// exactly — per function, exclusive seconds scaled by the imbalance
// factor plus attributed communication; per MPI routine, the simulated
// communication total; and for skew-free apps the end-to-end runtime.
func TestMeasureMatchesEvaluate(t *testing.T) {
	for _, arch := range Archetypes() {
		for seed := int64(1); seed <= 3; seed++ {
			app, err := Generate(arch, seed)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", arch, seed, err)
			}
			for _, cfg := range []apps.Config{BaseConfig(app.Design), ProbeConfig(app.Design)} {
				run := cluster.NewRunner(app.Spec)
				run.RanksPerNodeOverride = 1 // contention factor pinned to 1
				pl, err := apps.Compile(app.Spec)
				if err != nil {
					t.Fatalf("%s: compile: %v", app.Spec.Name, err)
				}
				g, err := pl.Evaluate(cfg, run.Cost)
				if err != nil {
					t.Fatalf("%s: evaluate: %v", app.Spec.Name, err)
				}
				prof, err := run.Measure(cfg, nil, 1, noise.Quiet())
				if err != nil {
					t.Fatalf("%s: measure: %v", app.Spec.Name, err)
				}

				skewFree := true
				p := int(cfg["p"])
				for i, f := range app.Spec.Funcs {
					if f.ImbalanceSkew != 0 {
						skewFree = false
					}
					imb := run.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
					want := g.ExclSeconds[i]*imb + g.CommByCaller[i]
					got := prof.FuncSeconds[f.Name][0]
					if !approxEq(got, want) {
						t.Errorf("%s @ %v: %s seconds: measure %g, evaluate %g",
							app.Spec.Name, cfg, f.Name, got, want)
					}
				}
				for _, m := range app.Spec.MPIUsed {
					if g.Calls[pl.Index(m)] == 0 {
						continue
					}
					if got, want := prof.FuncSeconds[m][0], g.CommSeconds[pl.Index(m)]; !approxEq(got, want) {
						t.Errorf("%s @ %v: %s comm seconds: measure %g, evaluate %g",
							app.Spec.Name, cfg, m, got, want)
					}
				}
				if skewFree {
					if got, want := prof.AppSeconds[0], g.TotalSeconds(); !approxEq(got, want) {
						t.Errorf("%s @ %v: app seconds: measure %g, evaluate %g",
							app.Spec.Name, cfg, got, want)
					}
				}
			}
		}
	}
}

// approxEq compares measured against analytic values with a relative
// tolerance covering float summation-order differences only.
func approxEq(got, want float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	return diff <= 1e-12*scale || diff == 0
}
