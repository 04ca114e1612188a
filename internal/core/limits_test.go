package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/taint"
)

// overParamSpec clones LULESH and inflates its parameter list to n distinct
// names (LULESH's own parameters first, padding after).
func overParamSpec(n int) *apps.Spec {
	spec := apps.LULESH()
	params := append([]string(nil), spec.Params...)
	for i := 0; len(params) < n; i++ {
		params = append(params, fmt.Sprintf("pad%02d", i))
	}
	spec.Params = params
	return spec
}

func TestPrepareRejectsTooManyTaintParams(t *testing.T) {
	// 64 declared + implicit p = 65 distinct > MaxBaseLabels.
	_, err := Prepare(overParamSpec(taint.MaxBaseLabels))
	if err == nil {
		t.Fatal("Prepare accepted a spec exceeding the mask budget")
	}
	var tme *taint.TooManyLabelsError
	if !errors.As(err, &tme) {
		t.Fatalf("want TooManyLabelsError, got %T: %v", err, err)
	}
	if tme.Declared != taint.MaxBaseLabels+1 {
		t.Fatalf("Declared = %d, want %d", tme.Declared, taint.MaxBaseLabels+1)
	}
}

func TestPrepareAcceptsMaxTaintParams(t *testing.T) {
	// 63 declared + implicit p = exactly MaxBaseLabels distinct: allowed.
	if _, err := Prepare(overParamSpec(taint.MaxBaseLabels - 1)); err != nil {
		t.Fatalf("Prepare rejected a spec at the mask budget: %v", err)
	}
}

// A spec whose functions call each other in a cycle never reaches the
// interpreter: nothing in the spec language ends a recursion, so the tainted
// run would recurse until the process is killed.
func TestPrepareRejectsCallCycle(t *testing.T) {
	spec := &apps.Spec{
		Name:   "cyc",
		Params: []string{"n"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, Body: []apps.Stmt{apps.Call{Callee: "f"}}},
			{Name: "f", Kind: apps.KindKernel, Body: []apps.Stmt{apps.Work{Units: 1}, apps.Call{Callee: "g"}}},
			{Name: "g", Kind: apps.KindKernel, Body: []apps.Stmt{apps.Call{Callee: "f"}}},
		},
	}
	prep, err := Prepare(spec)
	if prep != nil || err == nil || !strings.Contains(err.Error(), "call cycle f -> g -> f") {
		t.Fatalf("Prepare = (%v, %v), want an error naming the cycle f -> g -> f", prep, err)
	}
}

// A configuration without a positive p is rejected before any per-run
// state exists: a malformed or hostile design point must cost nothing.
func TestAnalyzeRejectsBadPBeforeAnyWork(t *testing.T) {
	prep, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	with := func(mutate func(apps.Config)) apps.Config {
		cfg := apps.LULESHTaintConfig().Clone()
		mutate(cfg)
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  apps.Config
		p    float64
	}{
		{"missing p", with(func(c apps.Config) { delete(c, "p") }), 0},
		{"p = 0", with(func(c apps.Config) { c["p"] = 0 }), 0},
		{"negative p", with(func(c apps.Config) { c["p"] = -4 }), -4},
		{"empty config", apps.Config{}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := prep.Analyze(c.cfg)
			var ce *ConfigError
			if rep != nil || !errors.As(err, &ce) {
				t.Fatalf("Analyze = (%v, %v), want a *ConfigError", rep, err)
			}
			if ce.P != c.p {
				t.Fatalf("ConfigError.P = %v, want %v", ce.P, c.p)
			}
			// The error value is the only allocation: no taint engine, no
			// interpreter machine, no report.
			if allocs := testing.AllocsPerRun(20, func() { prep.Analyze(c.cfg) }); allocs > 1 {
				t.Fatalf("rejected configuration cost %v allocations", allocs)
			}
		})
	}
}
