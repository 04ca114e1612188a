package apps

import (
	"fmt"
	"math"

	"repro/internal/mpisim"
)

// Ground is the analytic ground truth of one application configuration:
// how often each function runs and how much exclusive compute and
// communication time it accounts for. The cluster substrate layers
// contention, noise, and instrumentation intrusion on top of it. Its
// slices are addressed by the index spaces of the Plan it came from
// (Plan.Index resolves a name).
type Ground struct {
	Plan *Plan

	// Calls counts invocations per target, spec functions and MPI
	// routines alike.
	Calls []float64
	// Reached marks, per target, what this configuration's run can name:
	// main, and whatever a reached function calls in the branch arms the
	// configuration takes — under a zero-trip loop too, where the count is
	// zero but the call site is still part of the run.
	Reached []bool
	// ExclSeconds is per-function exclusive compute time (no callees).
	ExclSeconds []float64
	// CommByCaller is communication time attributed to the spec function
	// issuing the MPI calls.
	CommByCaller []float64
	// CommSeconds is analytic communication time attributed to each MPI
	// routine, by target (zero at the spec functions).
	CommSeconds []float64
	// CallsFrom counts direct call-edge executions per edge, edges into
	// MPI routines included.
	CallsFrom []float64

	total float64
}

// TotalSeconds is the application runtime: main's inclusive time.
func (g *Ground) TotalSeconds() float64 { return g.total }

// evaluation is the per-invocation state of one Evaluate call.
type evaluation struct {
	pl   *Plan
	cost mpisim.CostModel
	p    float64
	// raw holds the configuration's value of every plan parameter (0 when
	// absent, what a Branch compares); val is what a Quantity sees: absent
	// and non-positive values read as 1.
	raw, val []float64
	// Per invocation of each function: exclusive compute, communication
	// issued directly, inclusive time.
	excl, comm, incl []float64
	// Per invocation of each edge's caller: executions of the edge and,
	// into an MPI routine, their communication time.
	count, edgeComm []float64
	// seen marks the edges whose call statement lies in a taken arm.
	seen []bool
}

// Evaluate computes the ground truth of the plan's spec under cfg with the
// given communication cost model. cfg must define every spec parameter and
// "p".
//
// It is one pass over the plan and every sum it forms has a fixed order —
// that order is part of the result, because float addition does not
// associate. Within a function, the body is walked once, statement by
// statement: exclusive time, communication and per-edge counts accumulate
// in body order. Across functions, inclusive time is summed bottom-up
// (callees before callers, a function's callees in edge order) and the
// totals are pushed top-down in plan order (callers before callees, a
// caller's edges in edge order), so a target with several callers adds
// their contributions in plan order of the callers.
func (pl *Plan) Evaluate(cfg Config, cost mpisim.CostModel) (*Ground, error) {
	for _, p := range pl.spec.Params {
		if _, ok := cfg[p]; !ok {
			return nil, fmt.Errorf("apps: config missing parameter %q", p)
		}
	}
	if _, ok := cfg["p"]; !ok {
		return nil, fmt.Errorf("apps: config missing implicit parameter p")
	}

	nf, nt, ne, np := len(pl.funcs), len(pl.Targets), len(pl.EdgeTo), len(pl.params)
	buf := make([]float64, 2*np+5*nf+3*ne+2*nt)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	flags := make([]bool, ne+nt)
	ev := evaluation{
		pl: pl, cost: cost, p: cfg["p"],
		raw: take(np), val: take(np),
		excl: take(nf), comm: take(nf), incl: take(nf),
		count: take(ne), edgeComm: take(ne),
		seen: flags[:ne:ne],
	}
	g := &Ground{
		Plan:         pl,
		Calls:        take(nt),
		Reached:      flags[ne:],
		ExclSeconds:  take(nf),
		CommByCaller: take(nf),
		CommSeconds:  take(nt),
		CallsFrom:    take(ne),
	}
	for i, name := range pl.params {
		x, ok := cfg[name]
		ev.raw[i], ev.val[i] = x, x
		if !ok || x <= 0 {
			ev.val[i] = 1
		}
	}

	for f := range pl.funcs {
		pf := &pl.funcs[f]
		ev.walk(pf, f, pf.body, 1)
		// Hardware scaling of compute time (e.g. surface effects in p).
		if pf.hwPExp != 0 {
			ev.excl[f] *= math.Pow(ev.p, pf.hwPExp)
		}
	}

	// Inclusive time: own compute + own comm + callees' inclusive (an MPI
	// callee's time is already in comm).
	for i := nf - 1; i >= 0; i-- {
		f := pl.order[i]
		incl := ev.excl[f] + ev.comm[f]
		for e := pl.funcs[f].edges[0]; e < pl.funcs[f].edges[1]; e++ {
			if t := pl.EdgeTo[e]; int(t) < nf && ev.seen[e] {
				incl += ev.count[e] * ev.incl[t]
			}
		}
		ev.incl[f] = incl
	}
	g.total = ev.incl[0]

	// Totals for one invocation of main.
	g.Calls[0], g.Reached[0] = 1, true
	g.ExclSeconds[0] = ev.excl[0]
	for _, f := range pl.order {
		if !g.Reached[f] {
			continue
		}
		n := g.Calls[f]
		for e := pl.funcs[f].edges[0]; e < pl.funcs[f].edges[1]; e++ {
			if !ev.seen[e] {
				continue
			}
			t, calls := pl.EdgeTo[e], n*ev.count[e]
			g.CallsFrom[e] = calls
			g.Calls[t] += calls
			g.Reached[t] = true
			if int(t) < nf {
				g.ExclSeconds[t] += calls * ev.excl[t]
			} else {
				secs := n * ev.edgeComm[e]
				g.CommSeconds[t] += secs
				g.CommByCaller[f] += secs
			}
		}
	}
	return g, nil
}

// walk accumulates one execution of body, mult times over, into the
// per-invocation quantities of function f.
func (ev *evaluation) walk(pf *planFunc, f int, body []planStmt, mult float64) {
	for i := range body {
		st := &body[i]
		switch st.kind {
		case stmtWork:
			ev.excl[f] += mult * st.x * pf.workNanos * 1e-9
		case stmtLoop:
			n := st.x
			if st.quant >= 0 {
				n = ev.quantity(st.quant)
			}
			if n < 0 {
				n = 0
			}
			ev.walk(pf, f, st.body, mult*n)
		case stmtBranch:
			arm := st.alt
			if ev.raw[st.param] < st.x {
				arm = st.body
			}
			ev.walk(pf, f, arm, mult)
		case stmtCall:
			ev.count[st.edge] += mult
			ev.seen[st.edge] = true
			if st.comm != commNone {
				count := 1.0
				if st.quant >= 0 {
					count = ev.quantity(st.quant)
				}
				c := mult * commCost(ev.cost, st.comm, ev.p, count)
				ev.comm[f] += c
				ev.edgeComm[st.edge] += c
			}
		}
	}
}

func (ev *evaluation) quantity(q int32) float64 {
	cq := &ev.pl.quants[q]
	v := cq.coeff
	for _, t := range cq.terms {
		v *= math.Pow(ev.val[t.param], t.pow)
	}
	return v
}

// commCost is the analytic cost of one call of an MPI routine.
func commCost(cost mpisim.CostModel, kind commKind, p, count float64) float64 {
	switch kind {
	case commP2P:
		return cost.P2P(count)
	case commBarrier:
		return cost.Barrier(p)
	case commBcast:
		return cost.Bcast(p, count)
	case commAllreduce:
		return cost.Allreduce(p, count)
	case commGather:
		return cost.Gather(p, count)
	case commScatter:
		return cost.Scatter(p, count)
	case commAlltoall:
		return cost.Alltoall(p, count)
	default:
		return 0
	}
}
