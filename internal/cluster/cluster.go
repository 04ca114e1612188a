// Package cluster models the execution machine: node geometry, rank
// placement, and the memory-bandwidth contention that co-located ranks
// inflict on memory-intensive kernels. It turns an application's analytic
// ground truth into synthetic measurements with contention, noise, and
// instrumentation intrusion — the data the empirical modeler consumes.
//
// Contention reproduces Section C1: functions with no source-level
// dependence on the rank count slow down as more ranks share a socket,
// which the taint-informed pipeline can expose as a hardware effect because
// it knows the dependence cannot come from the code.
package cluster

import (
	"math"
	"sync"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/noise"
)

// Machine describes the node architecture.
type Machine struct {
	// CoresPerNode bounds ranks per node (36 for the paper's Skylake).
	CoresPerNode int
	// ContLinear and ContQuad shape the contention factor
	// 1 + mem*(ContLinear*log2(r) + ContQuad*log2(r)^2) for r co-located
	// ranks and a function of memory intensity mem.
	ContLinear float64
	ContQuad   float64
}

// Skylake returns the evaluation machine: two 18-core sockets per node.
func Skylake() Machine {
	return Machine{CoresPerNode: 36, ContLinear: 0.11, ContQuad: 0.018}
}

// ContentionFactor is the slowdown of a function with memory intensity mem
// when r ranks share a node.
func (m Machine) ContentionFactor(mem float64, r int) float64 {
	if r <= 1 || mem <= 0 {
		return 1
	}
	l := math.Log2(float64(r))
	return 1 + mem*(m.ContLinear*l+m.ContQuad*l*l)
}

// ImbalanceFactor is the critical-path stretch of a function with load
// imbalance skew when p ranks participate: the slowest straggler of p
// ranks lags the mean by roughly skew*log2(p). Like ContentionFactor it
// is a machine-side effect layered on the rank-symmetric ground truth.
func (m Machine) ImbalanceFactor(skew float64, p int) float64 {
	if p <= 1 || skew <= 0 {
		return 1
	}
	return 1 + skew*math.Log2(float64(p))
}

// RanksPerNode derives the per-node rank count for p total ranks when
// packed onto as few nodes as possible.
func (m Machine) RanksPerNode(p int) int {
	if p <= m.CoresPerNode {
		return p
	}
	return m.CoresPerNode
}

// Intrusion models the measurement-infrastructure cost (Score-P analog).
type Intrusion struct {
	// PerEventSeconds is charged per instrumented function call
	// (enter+exit pair).
	PerEventSeconds float64
	// FlushSeconds is charged per million instrumented events, scaled by
	// sqrt(p): profile-buffer management grows with both event volume and
	// rank count.
	FlushSeconds float64
	// BufferCapacity is the event count beyond which instrumentation
	// perturbs synchronization: ranks drift apart while flushing, and
	// functions whose subtree communicates absorb a wait-time skew of
	// SkewSeconds*sqrt(p). This is the mechanism that qualitatively
	// distorts models under full instrumentation (B2).
	BufferCapacity float64
	SkewSeconds    float64
}

// DefaultIntrusion uses a 0.6us event cost, the regime of compiler
// instrumentation with PAPI-free Score-P.
func DefaultIntrusion() Intrusion {
	return Intrusion{
		PerEventSeconds: 0.6e-6,
		FlushSeconds:    2e-3,
		BufferCapacity:  1e6,
		SkewSeconds:     0.3,
	}
}

// Runner synthesizes measurements for one application on one machine. Its
// Spec is compiled once, by NewRunner or by the first Measure, and must
// not change afterwards; the other fields may be set freely between calls.
// One Runner may serve any number of goroutines.
type Runner struct {
	Spec      *apps.Spec
	Cost      mpisim.CostModel
	Machine   Machine
	Intrusion Intrusion
	// RanksPerNodeOverride, when > 0, pins the co-location degree (the C1
	// experiment varies it at fixed p).
	RanksPerNodeOverride int

	compile sync.Once
	plan    *apps.Plan
	planErr error
}

// NewRunner assembles a runner with evaluation defaults. An invalid spec
// is reported by Measure, on every call.
func NewRunner(spec *apps.Spec) *Runner {
	r := &Runner{
		Spec:      spec,
		Cost:      mpisim.DefaultCost(),
		Machine:   Skylake(),
		Intrusion: DefaultIntrusion(),
	}
	r.compiled()
	return r
}

// compiled returns the plan of r.Spec, building it on first use.
func (r *Runner) compiled() (*apps.Plan, error) {
	r.compile.Do(func() { r.plan, r.planErr = apps.Compile(r.Spec) })
	return r.plan, r.planErr
}

// Profile is one synthetic measurement of an application configuration.
type Profile struct {
	Cfg apps.Config
	// FuncSeconds maps function name to repeated measurements of its
	// per-run time (exclusive compute under contention + its direct
	// communication + instrumentation charged to it).
	FuncSeconds map[string][]float64
	// AppSeconds is the total application time per repeat.
	AppSeconds []float64
	// BaseSeconds is the uninstrumented, noise-free application time.
	BaseSeconds float64
	// OverheadSeconds is the instrumentation cost added to the run.
	OverheadSeconds float64
	// Calls carries the ground-truth call counts (visit counts in Score-P
	// terms) of every function and MPI routine the configuration reaches.
	Calls map[string]float64
}

// Measure synthesizes reps repeated measurements of cfg. instrumented
// selects the functions carrying measurement probes (nil = none); src
// provides the noise stream, drawn from in a fixed order — the spec
// functions in declaration order, then the Spec.MPIUsed entries that were
// called, then the application total, reps draws each — so a seed yields
// the same profile wherever and whenever it is measured.
func (r *Runner) Measure(cfg apps.Config, instrumented map[string]bool, reps int, src *noise.Source) (*Profile, error) {
	pl, err := r.compiled()
	if err != nil {
		return nil, err
	}
	g, err := pl.Evaluate(cfg, r.Cost)
	if err != nil {
		return nil, err
	}
	p := int(cfg["p"])
	rpn := r.Machine.RanksPerNode(p)
	if r.RanksPerNodeOverride > 0 {
		rpn = r.RanksPerNodeOverride
	}
	nf := len(r.Spec.Funcs)

	// Instrumented event volume per function: own events plus events of
	// instrumented direct callees (the getter storm lands on its callers).
	probed := make([]bool, len(pl.Targets))
	for name, on := range instrumented {
		if t := pl.Index(name); on && t >= 0 {
			probed[t] = true
		}
	}
	events := make([]float64, nf)
	totalEvents := 0.0
	for t, on := range probed {
		if on {
			totalEvents += g.Calls[t]
			if t < nf {
				events[t] = g.Calls[t]
			}
		}
	}
	for e, callee := range pl.EdgeTo {
		if probed[callee] {
			events[pl.EdgeFrom[e]] += g.CallsFrom[e]
		}
	}
	sqrtP := math.Sqrt(float64(p))
	totalOvh := r.Intrusion.PerEventSeconds*totalEvents +
		r.Intrusion.FlushSeconds*totalEvents/1e6*sqrtP

	prof := &Profile{
		Cfg:             cfg.Clone(),
		FuncSeconds:     make(map[string][]float64, len(pl.Targets)),
		Calls:           make(map[string]float64, len(pl.Targets)),
		BaseSeconds:     g.TotalSeconds(),
		OverheadSeconds: totalOvh,
	}
	for t, name := range pl.Targets {
		if g.Reached[t] {
			prof.Calls[name] = g.Calls[t]
		}
	}

	// Every series of repeats is a slice of one array.
	series := make([]float64, (nf+len(pl.MPIUsed)+1)*reps)
	observe := func(trueTime float64) []float64 {
		out := series[:reps:reps]
		series = series[reps:]
		src.Fill(out, trueTime)
		return out
	}
	// The whole-application slowdown is the per-function contention and
	// imbalance stretch averaged by exclusive time.
	exclTotal, exclStretched := 0.0, 0.0
	for i, f := range r.Spec.Funcs {
		cont := r.Machine.ContentionFactor(f.MemIntensity, rpn)
		imb := r.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
		stretched := g.ExclSeconds[i] * cont * imb
		exclTotal += g.ExclSeconds[i]
		exclStretched += stretched

		ev := events[i]
		ovh := r.Intrusion.PerEventSeconds * ev
		ovh += r.Intrusion.FlushSeconds * ev / 1e6 * sqrtP
		if ev > r.Intrusion.BufferCapacity && pl.ReachesMPI[i] {
			ovh += r.Intrusion.SkewSeconds * sqrtP
		}
		prof.FuncSeconds[f.Name] = observe(stretched + g.CommByCaller[i] + ovh)
	}
	for _, t := range pl.MPIUsed {
		if g.Calls[t] == 0 {
			continue
		}
		prof.FuncSeconds[pl.Targets[t]] = observe(g.CommSeconds[t])
	}
	appFactor := 1.0
	if exclTotal != 0 {
		appFactor = exclStretched / exclTotal
	}
	prof.AppSeconds = observe(g.TotalSeconds()*appFactor + totalOvh)
	return prof, nil
}

// CoreHours returns the cost of one run at cfg in core-hours, including
// instrumentation overhead.
func (r *Runner) CoreHours(cfg apps.Config, instrumented map[string]bool) (float64, error) {
	prof, err := r.Measure(cfg, instrumented, 1, noise.Quiet())
	if err != nil {
		return 0, err
	}
	secs := prof.BaseSeconds + prof.OverheadSeconds
	return secs * cfg["p"] / 3600, nil
}
