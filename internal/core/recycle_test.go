package core_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/libdb"
	"repro/internal/runner"
	"repro/internal/taint"
)

// luleshLargeDesign is the 16-point design of the benchmark's lulesh-large
// workload, in ascending order.
func luleshLargeDesign() []apps.Config {
	return runner.Design{
		Defaults: apps.LULESHTaintConfig(),
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{11, 13, 15, 17}},
		},
	}.Configs()
}

// freshView analyzes cfg on a Prepared made for this one call: no run before
// it left anything in the program's arena pool.
func freshView(t *testing.T, spec *apps.Spec, cfg apps.Config) string {
	t.Helper()
	p, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Analyze(cfg)
	if err != nil {
		t.Fatalf("%s at %v: %v", spec.Name, cfg, err)
	}
	return core.ReportView(r)
}

// abortedRun runs cfg on p's shared program the way Analyze does, with fuel
// for only part of it: the arena goes back to the pool from a run that
// stopped with scopes open and the heap half built.
func abortedRun(t *testing.T, p *core.Prepared, cfg apps.Config, fuel int64) {
	t.Helper()
	eng := taint.NewEngine()
	mach := interp.NewMachine(p.Module)
	mach.Taint, mach.Fuel, mach.Prog = eng, fuel, p.Program
	p.DB.Bind(mach, eng, libdb.RunConfig{CommSize: int64(cfg["p"]), Rank: 0})
	labels := make([]taint.Label, len(p.Spec.Params))
	for i, prm := range p.Spec.Params {
		labels[i] = eng.Table.Base(prm)
	}
	if _, err := mach.Run("main", apps.TaintArgs(p.Spec, cfg), labels); !errors.Is(err, interp.ErrFuel) {
		t.Fatalf("run of %v with fuel %d: want ErrFuel, got %v", cfg, fuel, err)
	}
}

// TestDifferentialRecycledLULESH sweeps the lulesh-large design on one
// long-lived Prepared — ascending, descending and shuffled, so small points
// follow large ones and large ones small ones on recycled arenas, with a
// refused configuration and a fuel-exhausted run in between — and requires of
// every report what a freshly prepared spec reports for that point alone:
// every loop, branch and library-call record, the instruction count, the
// dependency maps, volumes and census.
func TestDifferentialRecycledLULESH(t *testing.T) {
	design := luleshLargeDesign()
	if len(design) != 16 {
		t.Fatalf("design has %d points, want 16", len(design))
	}
	want := make([]string, len(design))
	for i, cfg := range design {
		want[i] = freshView(t, apps.LULESH(), cfg)
	}
	prep, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	asc := make([]int, len(design))
	for i := range asc {
		asc[i] = i
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(24)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	noP := apps.LULESHTaintConfig().Clone()
	delete(noP, "p")
	for oi, order := range [][]int{asc, desc, shuffled} {
		for n, i := range order {
			switch n % 5 {
			case 2:
				var ce *core.ConfigError
				if _, err := prep.Analyze(noP); !errors.As(err, &ce) {
					t.Fatalf("configuration without p: want a ConfigError, got %v", err)
				}
			case 4:
				abortedRun(t, prep, design[len(design)-1], 20_000+int64(n)*7_001)
			}
			r, err := prep.Analyze(design[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := core.ReportView(r); got != want[i] {
				t.Fatalf("order %d, point %v after %d others: the report on recycled memory differs from a fresh Prepared's\n--- fresh ---\n%s\n--- recycled ---\n%s",
					oi, design[i], n, want[i], got)
			}
		}
	}
}

// TestDifferentialRecycledCorpus is the same comparison over the 25
// generated apps of the validation corpus, each swept over its own design on
// one Prepared: their loops nest, branch and call where LULESH's do not.
func TestDifferentialRecycledCorpus(t *testing.T) {
	for _, arch := range appgen.Archetypes() {
		for _, seed := range appgen.DefaultCorpusSeeds() {
			app, err := appgen.Generate(arch, seed)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := core.Prepare(app.Spec)
			if err != nil {
				t.Fatal(err)
			}
			design := runner.Design{Defaults: app.Design.Defaults, Axes: app.Design.Axes}.Configs()
			// Largest point first, so that every other one runs on an arena a
			// larger run used.
			slices.Reverse(design)
			for _, cfg := range design {
				r, err := prep.Analyze(cfg)
				if err != nil {
					t.Fatalf("%s at %v: %v", app.Spec.Name, cfg, err)
				}
				if got, want := core.ReportView(r), freshView(t, app.Spec, cfg); got != want {
					t.Fatalf("%s at %v: the report on recycled memory differs from a fresh Prepared's\n--- fresh ---\n%s\n--- recycled ---\n%s",
						app.Spec.Name, cfg, want, got)
				}
			}
		}
	}
}
