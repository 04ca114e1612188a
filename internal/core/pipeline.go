// Package core implements the Perf-Taint pipeline of Figure 2: static
// pruning, the dynamic tainted run, aggregation of loop and library
// dependencies per function, symbolic volume composition, the census of
// Table 2, the instrumentation-relevance set (A3), experiment-design
// reduction (A2), and the white-box priors handed to the Extra-P modeler
// (B1/B2).
package core

import (
	"repro/internal/apps"
	"repro/internal/extrap"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/loopmodel"
	"repro/internal/scev"
	"repro/internal/taint"
)

// Report is the complete result of one Perf-Taint analysis run.
type Report struct {
	Spec   *apps.Spec
	Module *ir.Module
	DB     *libdb.DB

	// Static holds the compile-time classification (Section 5.1).
	Static map[string]*scev.FuncClass
	// Engine is the dynamic taint state (Section 5.2).
	Engine *taint.Engine

	// LoopDeps aggregates, per function, the parameters tainting its loop
	// exit conditions across all calling contexts.
	LoopDeps map[string][]string
	// LibDeps aggregates per function the parametric dependencies of its
	// library calls (implicit p plus tainted count arguments, Section 5.3).
	LibDeps map[string][]string
	// FuncDeps is the union of LoopDeps and LibDeps.
	FuncDeps map[string][]string

	// Volumes is the symbolic compute-volume model (Theorem 1).
	Volumes *loopmodel.Volumes

	// Relevant marks functions with any parameter dependence: the
	// taint-based instrumentation filter (A3).
	Relevant map[string]bool

	// Instructions is the dynamic cost of the tainted run.
	Instructions int64

	// plan is the Prepared's module-only structure; loopLabels is this
	// run's label union per loop, indexed through plan.loopBase. Census
	// reads both.
	plan       *analysisPlan
	loopLabels []taint.Label
}

// Analyze builds the module from spec, runs the static pass and the tainted
// execution at cfg, and assembles the report. cfg must contain every spec
// parameter plus p. For repeated analyses of one spec at many
// configurations, Prepare once and call Prepared.Analyze per configuration
// (or use internal/runner to fan out across cores).
func Analyze(spec *apps.Spec, cfg apps.Config) (*Report, error) {
	p, err := Prepare(spec)
	if err != nil {
		return nil, err
	}
	return p.Analyze(cfg)
}

// DependsOnAny reports whether function fn depends on any of the given
// parameters.
func (r *Report) DependsOnAny(fn string, params []string) bool {
	for _, d := range r.FuncDeps[fn] {
		for _, p := range params {
			if d == p {
				return true
			}
		}
	}
	return false
}

// Prior derives the white-box modeling prior of function fn for the given
// model parameters: the allowed set is the intersection of the taint
// dependencies with the modeled parameters, and functions without any
// dependence are pinned constant. Multiplicative structure is not
// restricted — the paper uses it for experiment design (A2), not to veto
// hypotheses.
func (r *Report) Prior(fn string, modelParams []string) *extrap.Prior {
	allowed := make(map[string]bool)
	for _, d := range r.FuncDeps[fn] {
		for _, p := range modelParams {
			if d == p {
				allowed[p] = true
			}
		}
	}
	if len(allowed) == 0 {
		return &extrap.Prior{ForceConstant: true}
	}
	return &extrap.Prior{Allowed: allowed}
}

// Structure returns the dependency structure of fn's inclusive volume
// (additive groups of multiplicative sets), used by the experiment-design
// reduction.
func (r *Report) Structure(fn string) loopmodel.Structure {
	return r.Volumes.StructByFunc[fn]
}

// ParameterCoverage counts, for each parameter, how many functions and
// loops it affects (Table 3). Only spec functions of kernel, comm, and main
// kinds are counted, mirroring the paper's exclusion of pure library
// wrappers.
type ParameterCoverage struct {
	Param     string
	Functions int
	Loops     int
}

// Coverage computes per-parameter coverage plus the union row for the
// given model parameters.
func (r *Report) Coverage(modelParams []string) (rows []ParameterCoverage, unionFuncs, unionLoops int) {
	params := append([]string(nil), r.Spec.Params...)
	params = append(params, "p")
	kindOf := make(map[string]apps.Kind, len(r.Spec.Funcs))
	for _, f := range r.Spec.Funcs {
		kindOf[f.Name] = f.Kind
	}
	counted := func(fn string) bool {
		k, ok := kindOf[fn]
		return ok && (k == apps.KindKernel || k == apps.KindComm || k == apps.KindMain)
	}

	// Distinct loops per function+loopID with their labels.
	type loopID struct {
		fn string
		id int
	}
	loopLabels := make(map[loopID]taint.Label)
	for k, rec := range r.Engine.Loops {
		key := loopID{k.Func, k.LoopID}
		loopLabels[key] |= rec.Labels
	}

	inModel := func(name string) bool {
		for _, p := range modelParams {
			if p == name {
				return true
			}
		}
		return false
	}
	unionF := make(map[string]bool)
	unionL := make(map[loopID]bool)
	for _, param := range params {
		base := r.Engine.Table.LabelOf(param)
		fns := make(map[string]bool)
		loops := 0
		for key, l := range loopLabels {
			if !counted(key.fn) || base == taint.None || !l.Has(base) {
				continue
			}
			fns[key.fn] = true
			loops++
			if inModel(param) {
				unionL[key] = true
			}
		}
		// Library dependencies extend function coverage (not loops).
		for fn, deps := range r.LibDeps {
			if !counted(fn) {
				continue
			}
			for _, d := range deps {
				if d == param {
					fns[fn] = true
				}
			}
		}
		if inModel(param) {
			for fn := range fns {
				unionF[fn] = true
			}
		}
		rows = append(rows, ParameterCoverage{Param: param, Functions: len(fns), Loops: loops})
	}
	return rows, len(unionF), len(unionL)
}
