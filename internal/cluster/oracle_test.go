package cluster_test

// The evaluator Runner.Measure replaced, kept as the oracle the dense one is
// held to (as internal/interp keeps its reference engine): apps.Evaluate,
// cluster.reachesMPI and the Measure arithmetic as they stood before the
// compiled plan, statement for statement, with one change. The original
// ranged over Go maps wherever it summed — perInv.calls in eval and acc,
// commPer in acc, CallsFrom and the instrumented set in Measure, a
// Quantity's powers in Eval — so a sum or product of three or more terms
// could round differently from one call to the next. Here every such range
// visits the keys in an order drawn from the caller's rand.Rand (ranged),
// which makes the order an input: the differential tests evaluate the
// oracle under many orders and hold the new path bit for bit to whatever
// does not depend on it. Go's own map order cannot serve: a two-entry map
// iterates the same way seven times in eight, so twenty repeats would pass
// an order-dependent datum as reproducible one time in thirteen.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/noise"
)

// ranged returns the keys of m in an order drawn from rng.
func ranged[V any](m map[string]V, rng *rand.Rand) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// oracleQuantity is apps.Quantity.Eval.
func oracleQuantity(q apps.Quantity, cfg map[string]float64, rng *rand.Rand) float64 {
	v := q.Coeff
	for _, name := range ranged(q.Pow, rng) {
		pow := q.Pow[name]
		x, ok := cfg[name]
		if !ok || x <= 0 {
			x = 1
		}
		v *= math.Pow(x, float64(pow))
	}
	return v
}

// oracleGround is the analytic ground truth of one application configuration:
// how often each function runs and how much exclusive compute and
// communication time it accounts for. The cluster substrate layers
// contention, noise, and instrumentation intrusion on top of it.
type oracleGround struct {
	Spec *apps.Spec
	Cfg  apps.Config

	// Calls counts invocations per function, including MPI routine names.
	Calls map[string]float64
	// ExclSeconds is per-function exclusive compute time (no callees).
	ExclSeconds map[string]float64
	// CommSeconds is analytic communication time attributed to each MPI
	// routine name.
	CommSeconds map[string]float64
	// InclSeconds is inclusive time per function (callees and their
	// communication included).
	InclSeconds map[string]float64
	// CommByCaller is communication time attributed to the spec function
	// issuing the MPI calls.
	CommByCaller map[string]float64
	// CallsFrom[caller][callee] counts direct call-edge executions,
	// including edges into MPI routines.
	CallsFrom map[string]map[string]float64
}

// perInv captures per-invocation quantities of one function.
type perInv struct {
	excl  float64
	comm  float64 // communication triggered directly (attributed to MPI fns)
	calls map[string]float64
	incl  float64
}

// oracleEvaluate computes the ground truth of spec under cfg with the given
// communication cost model. cfg must define every spec parameter and "p".
func oracleEvaluate(s *apps.Spec, cfg apps.Config, cost mpisim.CostModel, rng *rand.Rand) (*oracleGround, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, p := range s.Params {
		if _, ok := cfg[p]; !ok {
			return nil, fmt.Errorf("apps: config missing parameter %q", p)
		}
	}
	if _, ok := cfg["p"]; !ok {
		return nil, fmt.Errorf("apps: config missing implicit parameter p")
	}
	p := cfg["p"]

	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, mname := range s.MPIUsed {
		mpi[mname] = true
	}

	// Per-invocation pass, memoized; specs are non-recursive by validation.
	memo := make(map[string]*perInv, len(s.Funcs))
	commPer := make(map[string]map[string]float64) // fn -> mpi name -> secs/inv
	var eval func(f *apps.FuncSpec) (*perInv, error)
	var walk func(f *apps.FuncSpec, body []apps.Stmt, mult float64, pi *perInv) error
	walk = func(f *apps.FuncSpec, body []apps.Stmt, mult float64, pi *perInv) error {
		for _, st := range body {
			switch v := st.(type) {
			case apps.Work:
				pi.excl += mult * v.Units * f.WorkNanos * 1e-9
			case apps.Loop:
				n := v.Bound.Coeff
				if v.Kind == apps.ParamBound {
					n = oracleQuantity(v.Bound, cfg, rng)
				}
				if n < 0 {
					n = 0
				}
				if err := walk(f, v.Body, mult*n, pi); err != nil {
					return err
				}
			case apps.Branch:
				body := v.Else
				if cfg[v.Param] < v.Less {
					body = v.Then
				}
				if err := walk(f, body, mult, pi); err != nil {
					return err
				}
			case apps.Call:
				pi.calls[v.Callee] += mult
				if mpi[v.Callee] {
					count := 1.0
					if v.CountArg != nil {
						count = oracleQuantity(*v.CountArg, cfg, rng)
					}
					c := oracleCommCost(cost, v.Callee, p, count)
					pi.comm += mult * c
					if commPer[f.Name] == nil {
						commPer[f.Name] = make(map[string]float64)
					}
					commPer[f.Name][v.Callee] += mult * c
				}
			}
		}
		return nil
	}
	eval = func(f *apps.FuncSpec) (*perInv, error) {
		if pi, ok := memo[f.Name]; ok {
			return pi, nil
		}
		pi := &perInv{calls: make(map[string]float64)}
		if err := walk(f, f.Body, 1, pi); err != nil {
			return nil, err
		}
		// Hardware scaling of compute time (e.g. surface effects in p).
		if f.HWFactorPExp != 0 {
			pi.excl *= math.Pow(p, f.HWFactorPExp)
		}
		// Inclusive time: own compute + own comm + callees' inclusive.
		pi.incl = pi.excl + pi.comm
		for _, callee := range ranged(pi.calls, rng) {
			n := pi.calls[callee]
			if mpi[callee] {
				continue // already accounted via comm
			}
			sub, err := eval(s.FuncByName(callee))
			if err != nil {
				return nil, err
			}
			pi.incl += n * sub.incl
		}
		memo[f.Name] = pi
		return pi, nil
	}
	if _, err := eval(s.Main()); err != nil {
		return nil, err
	}

	// Aggregate totals top-down from main (one invocation).
	g := &oracleGround{
		Spec:         s,
		Cfg:          cfg.Clone(),
		Calls:        make(map[string]float64),
		ExclSeconds:  make(map[string]float64),
		CommSeconds:  make(map[string]float64),
		InclSeconds:  make(map[string]float64),
		CommByCaller: make(map[string]float64),
		CallsFrom:    make(map[string]map[string]float64),
	}
	// Exact propagation by recursion with multiplicity; specs are
	// non-recursive so the walk terminates.
	var acc func(name string, n float64)
	acc = func(name string, n float64) {
		g.Calls[name] += n
		pi := memo[name]
		if pi == nil {
			return
		}
		g.ExclSeconds[name] += n * pi.excl
		g.InclSeconds[name] += n * pi.incl
		for _, callee := range ranged(pi.calls, rng) {
			per := pi.calls[callee]
			if g.CallsFrom[name] == nil {
				g.CallsFrom[name] = make(map[string]float64)
			}
			g.CallsFrom[name][callee] += n * per
			if mpi[callee] {
				g.Calls[callee] += n * per
				continue
			}
			acc(callee, n*per)
		}
		for _, mname := range ranged(commPer[name], rng) {
			secs := commPer[name][mname]
			g.CommSeconds[mname] += n * secs
			g.CommByCaller[name] += n * secs
		}
	}
	acc(s.Main().Name, 1)
	return g, nil
}

// oracleCommCost maps an MPI routine to its analytic cost for one call.
func oracleCommCost(cost mpisim.CostModel, name string, p, count float64) float64 {
	switch name {
	case "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv":
		return cost.P2P(count)
	case "MPI_Barrier":
		return cost.Barrier(p)
	case "MPI_Bcast":
		return cost.Bcast(p, count)
	case "MPI_Reduce", "MPI_Allreduce":
		return cost.Allreduce(p, count)
	case "MPI_Gather", "MPI_Allgather":
		return cost.Gather(p, count)
	case "MPI_Scatter":
		return cost.Scatter(p, count)
	case "MPI_Alltoall":
		return cost.Alltoall(p, count)
	default:
		return 0
	}
}

// TotalSeconds is the application runtime: main's inclusive time.
func (g *oracleGround) TotalSeconds() float64 {
	return g.InclSeconds[g.Spec.Main().Name]
}

// oracleMeasure synthesizes reps repeated measurements of cfg. instrumented
// selects the functions carrying measurement probes (nil = none); src
// provides the noise stream.
func oracleMeasure(r *cluster.Runner, cfg apps.Config, instrumented map[string]bool, reps int, src *noise.Source, rng *rand.Rand) (*cluster.Profile, error) {
	g, err := oracleEvaluate(r.Spec, cfg, r.Cost, rng)
	if err != nil {
		return nil, err
	}
	p := int(cfg["p"])
	rpn := r.Machine.RanksPerNode(p)
	if r.RanksPerNodeOverride > 0 {
		rpn = r.RanksPerNodeOverride
	}

	prof := &cluster.Profile{
		Cfg:         cfg.Clone(),
		FuncSeconds: make(map[string][]float64),
		Calls:       g.Calls,
		BaseSeconds: g.TotalSeconds(),
	}

	// Instrumented event volume per function: own events plus events of
	// instrumented direct callees (the getter storm lands on its callers).
	eventsOf := func(name string) float64 {
		ev := 0.0
		if instrumented[name] {
			ev += g.Calls[name]
		}
		for _, callee := range ranged(g.CallsFrom[name], rng) {
			n := g.CallsFrom[name][callee]
			if instrumented[callee] {
				ev += n
			}
		}
		return ev
	}
	reaches := oracleReachesMPI(r.Spec)
	sqrtP := math.Sqrt(float64(p))
	ovhOf := func(name string) float64 {
		ev := eventsOf(name)
		ovh := r.Intrusion.PerEventSeconds * ev
		ovh += r.Intrusion.FlushSeconds * ev / 1e6 * sqrtP
		if ev > r.Intrusion.BufferCapacity && reaches[name] {
			ovh += r.Intrusion.SkewSeconds * sqrtP
		}
		return ovh
	}
	totalEvents := 0.0
	for _, name := range ranged(instrumented, rng) {
		if instrumented[name] {
			totalEvents += g.Calls[name]
		}
	}
	totalOvh := r.Intrusion.PerEventSeconds*totalEvents +
		r.Intrusion.FlushSeconds*totalEvents/1e6*sqrtP
	prof.OverheadSeconds = totalOvh

	for _, f := range r.Spec.Funcs {
		cont := r.Machine.ContentionFactor(f.MemIntensity, rpn)
		imb := r.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
		trueTime := g.ExclSeconds[f.Name]*cont*imb + g.CommByCaller[f.Name] + ovhOf(f.Name)
		prof.FuncSeconds[f.Name] = src.Repeat(trueTime, reps)
	}
	for _, mname := range r.Spec.MPIUsed {
		if g.Calls[mname] == 0 {
			continue
		}
		prof.FuncSeconds[mname] = src.Repeat(g.CommSeconds[mname], reps)
	}
	appTrue := g.TotalSeconds()*oracleAppFactor(r, g, rpn, p) + totalOvh
	prof.AppSeconds = src.Repeat(appTrue, reps)
	return prof, nil
}

// oracleReachesMPI marks spec functions whose call subtree contains an MPI call.
func oracleReachesMPI(s *apps.Spec) map[string]bool {
	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, m := range s.MPIUsed {
		mpi[m] = true
	}
	memo := make(map[string]int) // 0 unknown, 1 no, 2 yes
	var scan func(body []apps.Stmt) bool
	var visit func(name string) bool
	scan = func(body []apps.Stmt) bool {
		for _, st := range body {
			switch v := st.(type) {
			case apps.Loop:
				if scan(v.Body) {
					return true
				}
			case apps.Branch:
				if scan(v.Then) || scan(v.Else) {
					return true
				}
			case apps.Call:
				if mpi[v.Callee] || visit(v.Callee) {
					return true
				}
			}
		}
		return false
	}
	visit = func(name string) bool {
		switch memo[name] {
		case 1:
			return false
		case 2:
			return true
		}
		memo[name] = 1 // break cycles conservatively
		f := s.FuncByName(name)
		if f == nil {
			return false
		}
		if scan(f.Body) {
			memo[name] = 2
			return true
		}
		return false
	}
	out := make(map[string]bool, len(s.Funcs))
	for _, f := range s.Funcs {
		out[f.Name] = visit(f.Name)
	}
	return out
}

// oracleAppFactor averages the per-function contention and imbalance stretch
// weighted by exclusive time, giving the whole-application slowdown.
func oracleAppFactor(r *cluster.Runner, g *oracleGround, rpn, p int) float64 {
	total, weighted := 0.0, 0.0
	for _, f := range r.Spec.Funcs {
		t := g.ExclSeconds[f.Name]
		total += t
		weighted += t * r.Machine.ContentionFactor(f.MemIntensity, rpn) *
			r.Machine.ImbalanceFactor(f.ImbalanceSkew, p)
	}
	if total == 0 {
		return 1
	}
	return weighted / total
}
