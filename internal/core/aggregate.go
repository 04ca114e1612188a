package core

import (
	"encoding/binary"
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/loopmodel"
	"repro/internal/scev"
	"repro/internal/taint"
)

// analysisPlan is everything stages 3-5 of Analyze and Report.Census need
// that is a function of the module alone. It is built once by PrepareModule
// and only read afterwards.
type analysisPlan struct {
	*loopmodel.Plan
	// loopBase[fn] is where function fn's loops start in a dense per-loop
	// array; loopBase[NumFuncs()] is the module's loop count.
	loopBase []int
}

func newAnalysisPlan(mod *ir.Module, forests []*cfg.Forest, static map[string]*scev.FuncClass, db *libdb.DB) *analysisPlan {
	trips := func(fn string, loopID int) (int64, bool) {
		tc, ok := static[fn].Loops[loopID]
		if !ok || !tc.Constant {
			return 0, false
		}
		return tc.Count, true
	}
	pl := &analysisPlan{Plan: loopmodel.NewPlan(mod, forests, trips, db.ExternVolume())}
	pl.loopBase = make([]int, pl.NumFuncs()+1)
	for fn := 0; fn < pl.NumFuncs(); fn++ {
		pl.loopBase[fn+1] = pl.loopBase[fn] + pl.NumLoops(fn)
	}
	return pl
}

// runMasks is the dense form of one run's taint records, indexed by the
// plan: everything the aggregation stages read from the engine.
type runMasks struct {
	// loops holds the label union of each loop over all its call paths, at
	// loopBase[fn]+loopID.
	loops []taint.Label
	// libs holds, per calling function, the label union of its library
	// calls.
	libs []taint.Label
	// hasLoop and hasLib mark the functions with any loop or library-call
	// record: LoopDeps and LibDeps carry a key for those even when the
	// records are untainted.
	hasLoop, hasLib []bool
	// table is the run's label table, whose bit assignment is part of
	// what the masks mean.
	table *taint.Table
}

// collect folds the engine's per-call-path records into dense masks in one
// pass over each record map.
func (pl *analysisPlan) collect(e *taint.Engine) runMasks {
	n := pl.NumFuncs()
	m := runMasks{
		loops:   make([]taint.Label, pl.loopBase[n]),
		libs:    make([]taint.Label, n),
		hasLoop: make([]bool, n),
		hasLib:  make([]bool, n),
		table:   e.Table,
	}
	for k, rec := range e.Loops {
		if fn, ok := pl.FuncIndex(k.Func); ok {
			m.loops[pl.loopBase[fn]+k.LoopID] |= rec.Labels
			m.hasLoop[fn] = true
		}
	}
	for k, rec := range e.LibCalls {
		if fn, ok := pl.FuncIndex(k.Caller); ok {
			m.libs[fn] |= rec.Labels
			m.hasLib[fn] = true
		}
	}
	return m
}

// signature renders the masks as a map key: equal signatures mean equal
// aggregation results.
func (m runMasks) signature() []byte {
	names := m.table.Names()
	sig := make([]byte, 0, 8*(len(m.loops)+len(m.libs))+2*len(m.libs)+16*len(names))
	for _, labels := range [][]taint.Label{m.loops, m.libs} {
		for _, l := range labels {
			sig = binary.LittleEndian.AppendUint64(sig, uint64(l))
		}
	}
	for _, seen := range [][]bool{m.hasLoop, m.hasLib} {
		for _, s := range seen {
			if s {
				sig = append(sig, 1)
			} else {
				sig = append(sig, 0)
			}
		}
	}
	for _, name := range names {
		sig = append(append(sig, name...), 0)
	}
	return sig
}

// aggregated is the outcome of stages 3-5. It is a pure function of the
// run's masks, so runs with equal masks share one value; nothing in it is
// written after evaluate returns.
type aggregated struct {
	loopDeps, libDeps, funcDeps map[string][]string
	volumes                     *loopmodel.Volumes
	relevant                    map[string]bool
	// loopLabels is the run's per-loop masks, for the census.
	loopLabels []taint.Label
}

// maxInterned caps how many aggregation results one Prepared keeps. The
// key space is the distinct mask signatures of one spec — a signature
// changes only when a configuration steers taint through different loops
// or library calls, which sweeps do for a handful of branch outcomes, not
// per point — and past the cap results are simply computed per run.
const maxInterned = 64

// aggregate runs stages 3-5 on a finished tainted run. The engine's
// records are read once, into masks indexed by the plan; the stages
// themselves run once per distinct mask signature of the Prepared.
func (p *Prepared) aggregate(engine *taint.Engine, instructions int64) *Report {
	m := p.plan.collect(engine)
	sig := m.signature()
	p.internMu.Lock()
	a := p.interned[string(sig)]
	p.internMu.Unlock()
	if a == nil {
		a = p.plan.evaluate(m, p.Spec.Main().Name)
		p.internMu.Lock()
		if prior := p.interned[string(sig)]; prior != nil {
			a = prior
		} else if len(p.interned) < maxInterned {
			if p.interned == nil {
				p.interned = make(map[string]*aggregated)
			}
			p.interned[string(sig)] = a
		}
		p.internMu.Unlock()
	}
	return &Report{
		Spec: p.Spec, Module: p.Module, DB: p.DB, Static: p.Static,
		Engine: engine, Instructions: instructions,
		LoopDeps: a.loopDeps, LibDeps: a.libDeps, FuncDeps: a.funcDeps,
		Volumes: a.volumes, Relevant: a.relevant,
		plan: p.plan, loopLabels: a.loopLabels,
	}
}

// evaluate computes per-function loop and library dependencies, their
// transitive closure over the call graph, symbolic volumes, and the
// relevance set (which always holds mainName) from one run's masks.
func (pl *analysisPlan) evaluate(m runMasks, mainName string) *aggregated {
	n := pl.NumFuncs()
	// Each distinct label is expanded to names once; the slices are shared
	// by the dependency maps and the volume expressions and never written
	// (clipped, so a consumer's append copies instead of growing in place).
	expanded := make(map[taint.Label][]string)
	names := func(l taint.Label) []string {
		if l == taint.None {
			return nil
		}
		ns, ok := expanded[l]
		if !ok {
			ns = slices.Clip(m.table.Expand(l))
			expanded[l] = ns
		}
		return ns
	}

	// Stage 3: aggregation. FuncDeps is transitive over the call graph:
	// the paper's models are calling-context profiles, so a function whose
	// callee communicates inherits the callee's parametric dependencies
	// (CalcQForElems inherits p from the boundary exchange it triggers).
	a := &aggregated{
		loopDeps:   make(map[string][]string),
		libDeps:    make(map[string][]string),
		funcDeps:   make(map[string][]string),
		relevant:   make(map[string]bool),
		loopLabels: m.loops,
	}
	direct := make([]taint.Label, n)
	for fn := 0; fn < n; fn++ {
		var own taint.Label
		for _, l := range m.loops[pl.loopBase[fn]:pl.loopBase[fn+1]] {
			own |= l
		}
		if m.hasLoop[fn] {
			a.loopDeps[pl.FuncName(fn)] = names(own)
		}
		if m.hasLib[fn] {
			a.libDeps[pl.FuncName(fn)] = names(m.libs[fn])
		}
		direct[fn] = own | m.libs[fn]
	}
	// A callee not yet visited (possible only on a call-graph cycle)
	// contributes nothing, so closed starts empty rather than at direct.
	closed := make([]taint.Label, n)
	for _, fn := range pl.Order() {
		l := direct[fn]
		for _, callee := range pl.Callees(fn) {
			l |= closed[callee]
		}
		closed[fn] = l
		if l != taint.None {
			a.funcDeps[pl.FuncName(fn)] = names(l)
			// Stage 5: relevance (the taint-based instrumentation filter).
			a.relevant[pl.FuncName(fn)] = true
		}
	}
	a.relevant[mainName] = true

	// Stage 4: symbolic volumes with static trip counts and library shapes.
	a.volumes = pl.Evaluate(func(fn, loop int) []string {
		return names(m.loops[pl.loopBase[fn]+loop])
	})
	return a
}
