package loopmodel

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Plan is the half of the volume computation that depends on the module
// alone: the call graph with its recursion set and bottom-up order, every
// function's loop forest with each reachable call attributed to its
// innermost loop, the statically resolved trip counts, and the volume
// expressions of library callees. It is built once per module and then
// evaluated once per tainted run, where only the parameter sets of the
// non-constant loops differ.
//
// A Plan is immutable after NewPlan returns and safe for concurrent use;
// the expressions it stores are shared by every Volumes it evaluates to.
type Plan struct {
	funcs  []planFunc // indexed like the module's FuncList
	byName map[string]int
	// order lists function indices callees-first (cfg.TopoOrder).
	order []int
	// recursion names the functions on call-graph cycles, sorted.
	recursion []string
}

type planFunc struct {
	name      string
	recursive bool
	// callees are the module functions fn calls, in first-call order.
	callees []int
	loops   []planLoop // indexed by loop ID
	roots   []int
	// calls are the reachable call sites outside every loop.
	calls []planCall
}

type planLoop struct {
	// trip is the constant trip count, nil when the loop is not statically
	// resolved and counts as an Unknown over the run's parameters.
	trip     Expr
	children []int
	// calls are the reachable call sites whose innermost loop this is.
	calls []planCall
}

// planCall is one call site that contributes volume: a module function
// already summarized when the caller is (callee >= 0) or a library routine
// with a fixed expression.
type planCall struct {
	callee int
	extern Expr
}

// NewPlan derives the plan of m from its loop forests (cfg.ModuleForests,
// only read). trips may be nil (no loop is statically constant) and so may
// externVol.
func NewPlan(m *ir.Module, forests []*cfg.Forest, trips StaticTrip, externVol ExternVolume) *Plan {
	cg := cfg.BuildCallGraph(m)
	rec := cg.FindRecursion()
	recSet := make(map[string]bool, len(rec))
	for _, r := range rec {
		recSet[r] = true
	}
	sort.Strings(rec)

	pl := &Plan{
		funcs:     make([]planFunc, len(m.FuncList)),
		byName:    make(map[string]int, len(m.FuncList)),
		recursion: rec,
	}
	for i, fn := range m.FuncList {
		pl.byName[fn.Name] = i
	}
	// A call contributes its callee's volume only when the callee was
	// summarized before the caller, which on a cycle depends on where the
	// order broke it.
	summarized := make([]bool, len(m.FuncList))
	for _, fn := range cfg.TopoOrder(m, cg) {
		fi := pl.byName[fn.Name]
		pl.order = append(pl.order, fi)
		forest := forests[fi]
		f := &pl.funcs[fi]
		f.name = fn.Name
		f.recursive = recSet[fn.Name]
		for _, c := range cg.Callees[fn.Name] {
			if ci, ok := pl.byName[c]; ok {
				f.callees = append(f.callees, ci)
			}
		}
		f.loops = make([]planLoop, len(forest.Loops))
		for _, l := range forest.Loops {
			pll := &f.loops[l.ID]
			if trips != nil {
				if c, ok := trips(fn.Name, l.ID); ok {
					if c < 0 {
						c = 1
					}
					pll.trip = Const{Value: float64(c)}
				}
			}
			for _, c := range l.Children {
				pll.children = append(pll.children, c.ID)
			}
		}
		for _, r := range forest.Roots {
			f.roots = append(f.roots, r.ID)
		}
		for bi, blk := range fn.Blocks {
			if !forest.Graph.Reachable(bi) {
				continue
			}
			calls := &f.calls
			if owner := forest.InnermostAt[bi]; owner != nil {
				calls = &f.loops[owner.ID].calls
			}
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op != ir.OpCall {
					continue
				}
				if ci, ok := pl.byName[in.Sym]; ok && summarized[ci] {
					*calls = append(*calls, planCall{callee: ci})
				} else if externVol != nil {
					if e := externVol(in.Sym); e != nil {
						*calls = append(*calls, planCall{callee: -1, extern: e})
					}
				}
			}
		}
		summarized[fi] = true
	}
	return pl
}

// NumFuncs returns the number of functions of the module.
func (pl *Plan) NumFuncs() int { return len(pl.funcs) }

// FuncIndex returns the FuncList index of the named function.
func (pl *Plan) FuncIndex(name string) (int, bool) {
	i, ok := pl.byName[name]
	return i, ok
}

// FuncName returns the name of function fn.
func (pl *Plan) FuncName(fn int) string { return pl.funcs[fn].name }

// NumLoops returns the number of natural loops of function fn; its loop
// IDs are 0..NumLoops-1.
func (pl *Plan) NumLoops(fn int) int { return len(pl.funcs[fn].loops) }

// StaticLoop reports whether the loop's trip count is statically constant.
func (pl *Plan) StaticLoop(fn, loop int) bool { return pl.funcs[fn].loops[loop].trip != nil }

// Order returns the function indices callees-first, the order of every
// bottom-up pass over the module. The slice must not be modified.
func (pl *Plan) Order() []int { return pl.order }

// Callees returns the module functions fn calls. The slice must not be
// modified.
func (pl *Plan) Callees(fn int) []int { return pl.funcs[fn].callees }

// Evaluate composes the volumes of one run. deps supplies the parameter
// names the taint analysis attached to a loop's exit conditions (nil for
// untainted, and deps itself may be nil); the slices it returns are kept
// in the result, not copied, so they must never change afterwards.
func (pl *Plan) Evaluate(deps func(fn, loop int) []string) *Volumes {
	v := &Volumes{
		ByFunc:            make(map[string]Expr, len(pl.funcs)),
		LocalByFunc:       make(map[string]Expr, len(pl.funcs)),
		StructByFunc:      make(map[string]Structure, len(pl.funcs)),
		RecursionWarnings: pl.recursion,
	}
	incl := make([]Expr, len(pl.funcs))
	var counts []Expr
	for _, fi := range pl.order {
		f := &pl.funcs[fi]
		var inclusive, local Expr
		if f.recursive {
			// Over-approximate recursive functions: unknown over all params
			// of their loops.
			inclusive = Unknown{Params: unionParams(fi, len(f.loops), deps)}
			local = inclusive
		} else {
			counts = counts[:0]
			for li := range f.loops {
				c := f.loops[li].trip
				if c == nil {
					var ps []string
					if deps != nil {
						ps = deps(fi, li)
					}
					c = Unknown{Params: ps}
				}
				counts = append(counts, c)
			}
			inclusive = f.volume(counts, incl)
			local = f.volume(counts, nil)
		}
		incl[fi] = inclusive
		v.ByFunc[f.name] = inclusive
		v.LocalByFunc[f.name] = local
		v.StructByFunc[f.name] = StructureOf(inclusive)
	}
	return v
}

// unionParams returns the sorted union of the parameters of all loops of
// function fn, nil when there are none.
func unionParams(fn, loops int, deps func(fn, loop int) []string) []string {
	if deps == nil {
		return nil
	}
	set := make(map[string]bool)
	for li := 0; li < loops; li++ {
		for _, p := range deps(fn, li) {
			set[p] = true
		}
	}
	var ps []string
	for p := range set {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// volume sums the function's loop nests and top-level calls on top of its
// own unit cost. callee holds the inclusive volumes of the functions
// summarized so far; nil leaves calls out, which gives the local volume.
func (f *planFunc) volume(counts, callee []Expr) Expr {
	terms := make([]Expr, 0, 1+len(f.roots)+len(f.calls))
	terms = append(terms, Const{Value: 1})
	for _, r := range f.roots {
		terms = append(terms, f.loopVolume(r, counts, callee))
	}
	terms = appendCalls(terms, f.calls, callee)
	return Add(terms...)
}

// loopVolume aggregates one loop: count(L) * (1 + children + calls).
func (f *planFunc) loopVolume(id int, counts, callee []Expr) Expr {
	l := &f.loops[id]
	body := make([]Expr, 0, 1+len(l.children)+len(l.calls))
	body = append(body, Const{Value: 1})
	for _, c := range l.children {
		body = append(body, f.loopVolume(c, counts, callee))
	}
	body = appendCalls(body, l.calls, callee)
	return Mul(counts[id], Add(body...))
}

func appendCalls(terms []Expr, calls []planCall, callee []Expr) []Expr {
	if callee == nil {
		return terms
	}
	for _, c := range calls {
		if c.callee >= 0 {
			terms = append(terms, callee[c.callee])
		} else {
			terms = append(terms, c.extern)
		}
	}
	return terms
}
