// Package appgen generates seeded random applications with analytically
// known ground truth, and validates end-to-end model recovery against it.
//
// Where internal/apps curates hand-written reproductions of the paper's
// evaluation codes (LULESH, MILC), appgen mass-produces apps.Spec values
// in named archetypes — compute-bound stencils, communication-heavy halo
// exchanges, memory-bound streaming kernels, load-imbalanced master/worker
// decompositions, and mixed call trees. Because every generated app is a
// declarative Spec, its true per-function parameter dependencies and loop
// iteration polynomials are derivable by construction (truth.go mirrors
// the taint semantics of internal/core exactly), which turns the whole
// analysis pipeline into a measurable instrument: run each app through
// core.Prepare -> sweep -> modelreg fitting, then score the recovered
// dependencies and models against the analytic truth (recovery.go).
//
// The golden corpus (corpus.go, testdata/corpus_v1.json) pins a set of
// (archetype, seed) pairs with their expected dependency sets and
// recovery scores; the CI corpus-smoke job regenerates and re-scores it
// on every change, gating on dependency precision/recall and model
// quality thresholds.
package appgen

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/libdb"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// Archetype names one generator family. Each archetype stresses a
// different axis of the analysis: loop-bound taint, collective
// communication, machine-side contention, divided (per-rank) bounds, and
// deep call trees with parameter-driven branching.
type Archetype string

// The generator families.
const (
	// Stencil is compute-bound: a timestep loop over polynomial kernels
	// with one residual collective per step.
	Stencil Archetype = "stencil"
	// Halo is communication-heavy: neighbor exchanges with message sizes
	// growing in the mesh surface, plus collectives and a rank loop.
	Halo Archetype = "halo"
	// Stream is memory-bound: high-MemIntensity single loops with no
	// code-level dependence on p, so any fitted p-term is a machine
	// effect (contention) the taint proof must veto.
	Stream Archetype = "stream"
	// MasterWorker is load-imbalanced: tasks/p divided loop bounds,
	// scatter/gather distribution, and nonzero ImbalanceSkew.
	MasterWorker Archetype = "master-worker"
	// Mixed combines the above in a deeper call tree with a
	// parameter-driven branch selecting between kernel variants.
	Mixed Archetype = "mixed"
)

// Archetypes lists every generator family in canonical order.
func Archetypes() []Archetype {
	return []Archetype{Stencil, Halo, Stream, MasterWorker, Mixed}
}

// App is one generated application: the spec, the canonical modeling
// design to recover it with, and the analytic ground truth resolved at
// the design's base configuration (the taint-run configuration).
type App struct {
	// Archetype and Seed identify the generator invocation; Generate is
	// deterministic in them.
	Archetype Archetype
	Seed      int64
	// Spec is the generated application.
	Spec *apps.Spec
	// Design is the canonical model-extraction design for this app:
	// every spec parameter plus the implicit p is swept.
	Design modelreg.Config
	// Truth is the analytic ground truth at the design's base
	// configuration — the configuration the pipeline's taint run uses.
	Truth *Truth
}

// Generate builds the application of (archetype, seed). The result is
// deterministic: equal inputs produce structurally identical specs and
// designs. Every function of the generated spec is reachable from main
// with at least one executed invocation at every design point.
func Generate(arch Archetype, seed int64) (*App, error) {
	r := rand.New(rand.NewSource(archSalt(arch) + seed))
	b := &builder{r: r}
	switch arch {
	case Stencil:
		b.stencil()
	case Halo:
		b.halo()
	case Stream:
		b.stream()
	case MasterWorker:
		b.masterWorker()
	case Mixed:
		b.mixed()
	default:
		return nil, fmt.Errorf("appgen: unknown archetype %q", arch)
	}
	b.spec.Name = fmt.Sprintf("%s-s%d", arch, seed)
	if err := b.spec.Validate(); err != nil {
		return nil, fmt.Errorf("appgen: %s seed %d: %w", arch, seed, err)
	}
	design := b.design
	design.App = b.spec.Name
	design.Seed = seed
	truth := ComputeTruth(b.spec, libdb.DefaultMPI(), BaseConfig(design))
	for _, f := range b.spec.Funcs {
		if ft := truth.Funcs[f.Name]; ft == nil || !ft.Executed {
			return nil, fmt.Errorf("appgen: %s seed %d: function %s is not executed at the base design point",
				arch, seed, f.Name)
		}
	}
	return &App{Archetype: arch, Seed: seed, Spec: b.spec, Design: design, Truth: truth}, nil
}

// archSalt decorrelates the random streams of different archetypes at
// equal seeds.
func archSalt(arch Archetype) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(arch); i++ {
		h ^= uint64(arch[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// BaseConfig is the smallest design point of a modeling config: the
// defaults overlaid with every axis at its minimum. It equals the
// configuration modelreg's pipeline runs its white-box taint analysis
// at, so analytic truth resolved here matches the recovered dependency
// sets statement for statement.
func BaseConfig(c modelreg.Config) apps.Config {
	return runner.Design{Defaults: c.Defaults, Axes: c.Axes}.Corner(false)
}

// ProbeConfig is the extrapolation configuration recovery scoring
// evaluates models at: every axis at twice its maximum value, the
// regime the sweep never measured.
func ProbeConfig(c modelreg.Config) apps.Config {
	cfg := runner.Design{Defaults: c.Defaults, Axes: c.Axes}.Corner(true)
	for _, ax := range c.Axes {
		cfg[ax.Param] *= 2
	}
	return cfg
}
