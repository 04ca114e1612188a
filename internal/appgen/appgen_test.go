package appgen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestGenerateDeterministic pins that equal (archetype, seed) inputs
// produce byte-identical specs (via the content digest) and equal truth.
func TestGenerateDeterministic(t *testing.T) {
	for _, arch := range Archetypes() {
		a, err := Generate(arch, 7)
		if err != nil {
			t.Fatalf("Generate(%s, 7): %v", arch, err)
		}
		b, err := Generate(arch, 7)
		if err != nil {
			t.Fatalf("Generate(%s, 7) again: %v", arch, err)
		}
		if da, db := core.SpecDigest(a.Spec), core.SpecDigest(b.Spec); da != db {
			t.Errorf("%s: digests differ across identical generations: %s vs %s", arch, da, db)
		}
		if !reflect.DeepEqual(a.Truth.Funcs, b.Truth.Funcs) {
			t.Errorf("%s: truth differs across identical generations", arch)
		}
		c, err := Generate(arch, 8)
		if err != nil {
			t.Fatalf("Generate(%s, 8): %v", arch, err)
		}
		if core.SpecDigest(a.Spec) == core.SpecDigest(c.Spec) {
			t.Errorf("%s: seeds 7 and 8 generated identical specs", arch)
		}
	}
}

// TestTruthMatchesTaintAnalysis is the keystone consistency check: for a
// population of generated apps, the analytic ground truth (dependency
// sets from the spec walk, iteration totals from Quantity.EvalInt) must
// agree EXACTLY with what the tainted interpreter observes at the base
// design point — function for function, parameter for parameter,
// iteration for iteration.
func TestTruthMatchesTaintAnalysis(t *testing.T) {
	for _, arch := range Archetypes() {
		for seed := int64(1); seed <= 6; seed++ {
			app, err := Generate(arch, seed)
			if err != nil {
				t.Fatalf("Generate(%s, %d): %v", arch, seed, err)
			}
			if _, err := app.Design.Resolve(app.Spec, runner.MaxPoints); err != nil {
				t.Fatalf("%s: design invalid: %v", app.Spec.Name, err)
			}
			cfg := BaseConfig(app.Design)
			rep, err := core.Analyze(app.Spec, cfg)
			if err != nil {
				t.Fatalf("%s: analyze: %v", app.Spec.Name, err)
			}

			for _, f := range app.Spec.Funcs {
				want := app.Truth.Funcs[f.Name].Deps
				got := rep.FuncDeps[f.Name]
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: %s deps: truth %v, taint %v", app.Spec.Name, f.Name, want, got)
				}
			}

			wantIters := IterationTotals(app.Spec, cfg)
			gotIters := make(map[string]int64)
			for k, rec := range rep.Engine.Loops {
				gotIters[k.Func] += rec.Iterations
			}
			for _, f := range app.Spec.Funcs {
				if w, g := wantIters[f.Name], gotIters[f.Name]; w != g {
					t.Errorf("%s: %s iterations: truth %d, engine %d", app.Spec.Name, f.Name, w, g)
				}
			}
		}
	}
}

// TestArchetypeDependencyShapes spot-checks the structural promises each
// archetype documents: stream apps are p-independent at code level,
// master-worker workers carry the divided {p, tasks} dependence, and
// mixed apps' branch parameter stays out of the branching function's
// dependency set.
func TestArchetypeDependencyShapes(t *testing.T) {
	stream, err := Generate(Stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, ft := range stream.Truth.Funcs {
		for _, d := range ft.Deps {
			if d == "p" {
				t.Errorf("stream: %s depends on p at code level: %v", name, ft.Deps)
			}
		}
	}

	mw, err := Generate(MasterWorker, 3)
	if err != nil {
		t.Fatal(err)
	}
	worker := mw.Truth.Funcs["process_chunk"]
	if !reflect.DeepEqual(worker.Deps, []string{"p", "tasks"}) {
		t.Errorf("master-worker: process_chunk deps = %v, want [p tasks]", worker.Deps)
	}
	if worker.Representable {
		t.Error("master-worker: divided bound tasks/p must not be PMNF-representable")
	}

	mixed, err := Generate(Mixed, 3)
	if err != nil {
		t.Fatal(err)
	}
	solve := mixed.Truth.Funcs["solve_region"]
	for _, d := range solve.Deps {
		if d == "regions" {
			t.Errorf("mixed: solve_region must not absorb the branch parameter: %v", solve.Deps)
		}
	}
}
