package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/loopmodel"
	"repro/internal/taint"
)

// The functions below are the aggregation stages as they were before the
// per-spec plan: every call rebuilds the call graph, the bottom-up order
// and each function's CFG and loop forest, and answers every per-loop
// query with a scan of all loop records. They stay as the oracle the plan
// is compared against and must not be "improved".

func legacyPropagateDeps(mod *ir.Module, direct map[string][]string) map[string][]string {
	cg := cfg.BuildCallGraph(mod)
	order := cfg.TopoOrder(mod, cg)
	out := make(map[string]map[string]bool, len(order))
	for _, fn := range order {
		set := make(map[string]bool)
		for _, d := range direct[fn.Name] {
			set[d] = true
		}
		for _, callee := range cg.Callees[fn.Name] {
			for d := range out[callee] {
				set[d] = true
			}
		}
		out[fn.Name] = set
	}
	res := make(map[string][]string, len(out))
	for fn, set := range out {
		if len(set) == 0 {
			continue
		}
		list := make([]string, 0, len(set))
		for d := range set {
			list = append(list, d)
		}
		sort.Strings(list)
		res[fn] = list
	}
	return res
}

func legacyUnionDeps(a, b map[string][]string) map[string][]string {
	set := make(map[string]map[string]bool)
	merge := func(m map[string][]string) {
		for fn, deps := range m {
			if set[fn] == nil {
				set[fn] = make(map[string]bool)
			}
			for _, d := range deps {
				set[fn][d] = true
			}
		}
	}
	merge(a)
	merge(b)
	out := make(map[string][]string, len(set))
	for fn, ds := range set {
		list := make([]string, 0, len(ds))
		for d := range ds {
			list = append(list, d)
		}
		sort.Strings(list)
		out[fn] = list
	}
	return out
}

func legacyCompute(m *ir.Module, deps func(fn string, loopID int) []string, trips loopmodel.StaticTrip, externVol loopmodel.ExternVolume) *loopmodel.Volumes {
	cg := cfg.BuildCallGraph(m)
	rec := cg.FindRecursion()
	recSet := make(map[string]bool, len(rec))
	for _, r := range rec {
		recSet[r] = true
	}
	sort.Strings(rec)

	v := &loopmodel.Volumes{
		ByFunc:            make(map[string]loopmodel.Expr, len(m.FuncList)),
		LocalByFunc:       make(map[string]loopmodel.Expr, len(m.FuncList)),
		StructByFunc:      make(map[string]loopmodel.Structure, len(m.FuncList)),
		RecursionWarnings: rec,
	}

	order := cfg.TopoOrder(m, cg)
	for _, fn := range order {
		if recSet[fn.Name] {
			set := make(map[string]bool)
			g := cfg.Build(fn)
			forest := cfg.FindLoops(g)
			for _, l := range forest.Loops {
				if deps != nil {
					for _, p := range deps(fn.Name, l.ID) {
						set[p] = true
					}
				}
			}
			var ps []string
			for p := range set {
				ps = append(ps, p)
			}
			sort.Strings(ps)
			e := loopmodel.Expr(loopmodel.Unknown{Params: ps})
			v.ByFunc[fn.Name] = e
			v.LocalByFunc[fn.Name] = e
			v.StructByFunc[fn.Name] = loopmodel.StructureOf(e)
			continue
		}
		incl, local := legacyComputeFunc(fn, v.ByFunc, deps, trips, externVol)
		v.ByFunc[fn.Name] = incl
		v.LocalByFunc[fn.Name] = local
		v.StructByFunc[fn.Name] = loopmodel.StructureOf(incl)
	}
	return v
}

func legacyComputeFunc(fn *ir.Function, memo map[string]loopmodel.Expr, deps func(fn string, loopID int) []string, trips loopmodel.StaticTrip, externVol loopmodel.ExternVolume) (incl, local loopmodel.Expr) {
	g := cfg.Build(fn)
	forest := cfg.FindLoops(g)

	callsIn := make(map[*cfg.Loop][]loopmodel.Expr)
	for bi, blk := range fn.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		owner := forest.InnermostAt[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.Op != ir.OpCall {
				continue
			}
			var ce loopmodel.Expr
			if e, ok := memo[in.Sym]; ok {
				ce = e
			} else if externVol != nil {
				ce = externVol(in.Sym)
			}
			if ce != nil {
				callsIn[owner] = append(callsIn[owner], ce)
			}
		}
	}

	countOf := func(l *cfg.Loop) loopmodel.Expr {
		if trips != nil {
			if c, ok := trips(fn.Name, l.ID); ok {
				if c < 0 {
					c = 1
				}
				return loopmodel.Const{Value: float64(c)}
			}
		}
		var ps []string
		if deps != nil {
			ps = deps(fn.Name, l.ID)
		}
		return loopmodel.Unknown{Params: append([]string(nil), ps...)}
	}

	var volLoop func(l *cfg.Loop) loopmodel.Expr
	volLoop = func(l *cfg.Loop) loopmodel.Expr {
		body := []loopmodel.Expr{loopmodel.Const{Value: 1}}
		for _, c := range l.Children {
			body = append(body, volLoop(c))
		}
		body = append(body, callsIn[l]...)
		return loopmodel.Mul(countOf(l), loopmodel.Add(body...))
	}

	topTerms := []loopmodel.Expr{loopmodel.Const{Value: 1}}
	localTerms := []loopmodel.Expr{loopmodel.Const{Value: 1}}
	for _, r := range forest.Roots {
		topTerms = append(topTerms, volLoop(r))
	}
	topTerms = append(topTerms, callsIn[nil]...)

	var volLoopLocal func(l *cfg.Loop) loopmodel.Expr
	volLoopLocal = func(l *cfg.Loop) loopmodel.Expr {
		body := []loopmodel.Expr{loopmodel.Const{Value: 1}}
		for _, c := range l.Children {
			body = append(body, volLoopLocal(c))
		}
		return loopmodel.Mul(countOf(l), loopmodel.Add(body...))
	}
	for _, r := range forest.Roots {
		localTerms = append(localTerms, volLoopLocal(r))
	}

	return loopmodel.Add(topTerms...), loopmodel.Add(localTerms...)
}

// legacyLoopCensus is the loop half of the former Report.Census: total,
// statically pruned, model-relevant and other loops.
func legacyLoopCensus(r *core.Report, modelParams []string) (total, static, relevant, other int) {
	inModel := make(map[string]bool, len(modelParams))
	for _, p := range modelParams {
		inModel[p] = true
	}
	type loopID struct {
		fn string
		id int
	}
	labels := make(map[loopID]taint.Label)
	for k, rec := range r.Engine.Loops {
		labels[loopID{k.Func, k.LoopID}] |= rec.Labels
	}
	for _, fn := range r.Module.FuncList {
		forest := cfg.FindLoops(cfg.Build(fn))
		total += len(forest.Loops)
		fc := r.Static[fn.Name]
		for _, l := range forest.Loops {
			if fc != nil {
				if tc, ok := fc.Loops[l.ID]; ok && tc.Constant {
					static++
					continue
				}
			}
			hit := false
			for _, d := range r.Engine.Table.Expand(labels[loopID{fn.Name, l.ID}]) {
				if inModel[d] {
					hit = true
					break
				}
			}
			if hit {
				relevant++
			} else {
				other++
			}
		}
	}
	return
}

// legacyAggregate is Analyze's former stages 3-5 on a finished engine.
func legacyAggregate(p *core.Prepared, engine *taint.Engine) (loopDeps, libDeps, funcDeps map[string][]string, vol *loopmodel.Volumes, relevant map[string]bool) {
	loopDeps = engine.FuncLoopDeps()
	libDeps = engine.FuncLibDeps()
	funcDeps = legacyPropagateDeps(p.Module, legacyUnionDeps(loopDeps, libDeps))
	loopDepFn := func(fn string, loopID int) []string {
		l := taint.None
		for k, rec := range engine.Loops {
			if k.Func == fn && k.LoopID == loopID {
				l |= rec.Labels
			}
		}
		return engine.Table.Expand(l)
	}
	tripFn := func(fn string, loopID int) (int64, bool) {
		fc := p.Static[fn]
		if fc == nil {
			return 0, false
		}
		tc, ok := fc.Loops[loopID]
		if !ok || !tc.Constant {
			return 0, false
		}
		return tc.Count, true
	}
	vol = legacyCompute(p.Module, loopDepFn, tripFn, p.DB.ExternVolume())
	relevant = make(map[string]bool)
	for fn, deps := range funcDeps {
		if len(deps) > 0 {
			relevant[fn] = true
		}
	}
	relevant[p.Spec.Main().Name] = true
	return
}

// planCase is one module the plan is checked on; the same table drives
// TestPlanMatchesComputeOracle and BenchmarkAnalyzeAggregate.
type planCase struct {
	name string
	prep *core.Prepared
	cfg  apps.Config
}

func mustPrepare(tb testing.TB, spec *apps.Spec) *core.Prepared {
	tb.Helper()
	p, err := core.Prepare(spec)
	if err != nil {
		tb.Fatalf("prepare %s: %v", spec.Name, err)
	}
	return p
}

// recursiveCase is a hand-built module with a self-recursive function, a
// two-function cycle, loops inside and outside the cycles, and library
// calls on both sides of them.
func recursiveCase(tb testing.TB) planCase {
	tb.Helper()
	m := ir.NewModule("recursive")

	walk := ir.NewFunc(m, "walk", 1)
	walk.For(walk.Const(0), walk.Param(0), walk.Const(1), func(ir.Reg) { walk.Work(walk.Const(1)) })
	walk.Call("walk", walk.Param(0))
	walk.Call("MPI_Barrier")
	walk.RetVoid()
	walk.Finish()

	ping := ir.NewFunc(m, "ping", 1)
	ping.For(ping.Const(0), ping.Param(0), ping.Const(1), func(ir.Reg) {
		ping.ForConst(0, 3, func(ir.Reg) { ping.Work(ping.Const(1)) })
	})
	ping.Call("pong", ping.Param(0))
	ping.RetVoid()
	ping.Finish()

	pong := ir.NewFunc(m, "pong", 1)
	pong.Call("ping", pong.Param(0))
	pong.For(pong.Const(0), pong.Param(0), pong.Const(1), func(ir.Reg) { pong.Call("leaf", pong.Param(0)) })
	pong.RetVoid()
	pong.Finish()

	leaf := ir.NewFunc(m, "leaf", 1)
	leaf.For(leaf.Const(0), leaf.Param(0), leaf.Const(1), func(ir.Reg) { leaf.Call("MPI_Allreduce") })
	leaf.RetVoid()
	leaf.Finish()

	mainFn := ir.NewFunc(m, "main", 2)
	mainFn.For(mainFn.Const(0), mainFn.Param(0), mainFn.Const(1), func(ir.Reg) {
		mainFn.Call("walk", mainFn.Param(1))
		mainFn.Call("ping", mainFn.Param(1))
	})
	mainFn.Call("leaf", mainFn.Param(0))
	mainFn.RetVoid()
	mainFn.Finish()

	spec := &apps.Spec{
		Name:   "recursive",
		Params: []string{"n", "m"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain},
			{Name: "walk", Kind: apps.KindKernel},
			{Name: "ping", Kind: apps.KindKernel},
			{Name: "pong", Kind: apps.KindKernel},
			{Name: "leaf", Kind: apps.KindComm},
		},
		MPIUsed: []string{"MPI_Barrier", "MPI_Allreduce"},
	}
	return planCase{name: "recursive", prep: core.PrepareModule(spec, m, libdb.DefaultMPI())}
}

func planCases(tb testing.TB) []planCase {
	tb.Helper()
	cases := []planCase{
		{name: "lulesh", prep: mustPrepare(tb, apps.LULESH()), cfg: apps.LULESHTaintConfig()},
		{name: "milc", prep: mustPrepare(tb, apps.MILC()), cfg: apps.MILCTaintConfig()},
		recursiveCase(tb),
	}
	for _, arch := range appgen.Archetypes() {
		for _, seed := range appgen.DefaultCorpusSeeds() {
			app, err := appgen.Generate(arch, seed)
			if err != nil {
				tb.Fatal(err)
			}
			cases = append(cases, planCase{
				name: app.Spec.Name,
				prep: mustPrepare(tb, app.Spec),
				cfg:  appgen.BaseConfig(app.Design),
			})
		}
	}
	return cases
}

// randomEngine fabricates the records of a tainted run: every loop of the
// module gets zero to three call-path records with random subsets of the
// registered parameters, and a share of the functions get library-call
// records, so label assignments no real run produces are covered too.
func randomEngine(p *core.Prepared, rng *rand.Rand) *taint.Engine {
	e := taint.NewEngine()
	var all []taint.Label
	for _, prm := range p.Spec.Params {
		all = append(all, e.Table.Base(prm))
	}
	all = append(all, e.Table.Base(libdb.MPIParam))
	pick := func() taint.Label {
		l := taint.None
		if rng.Intn(3) == 0 {
			return l
		}
		for _, b := range all {
			if rng.Intn(3) == 0 {
				l |= b
			}
		}
		return l
	}
	for _, fn := range p.Module.FuncList {
		forest := cfg.FindLoops(cfg.Build(fn))
		for _, l := range forest.Loops {
			for path := rng.Intn(4); path > 0; path-- {
				e.RecordLoopExit(fn.Name, l.ID, l.Header, fmt.Sprintf("main/ctx%d/%s", path, fn.Name), pick())
			}
		}
		if rng.Intn(4) == 0 {
			callee := "MPI_Allreduce"
			for calls := 1 + rng.Intn(2); calls > 0; calls-- {
				rec := e.LibCallRec(fn.Name, callee, fmt.Sprintf("main/%s/%s", fn.Name, callee))
				rec.Labels |= pick()
				rec.Count++
				callee = "MPI_Send"
			}
		}
	}
	return e
}

func checkAgainstOracle(t *testing.T, p *core.Prepared, e *taint.Engine) {
	t.Helper()
	got := p.Aggregate(e)
	loopDeps, libDeps, funcDeps, vol, relevant := legacyAggregate(p, e)
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"LoopDeps", got.LoopDeps, loopDeps},
		{"LibDeps", got.LibDeps, libDeps},
		{"FuncDeps", got.FuncDeps, funcDeps},
		{"Relevant", got.Relevant, relevant},
		{"Volumes.ByFunc", got.Volumes.ByFunc, vol.ByFunc},
		{"Volumes.LocalByFunc", got.Volumes.LocalByFunc, vol.LocalByFunc},
		{"Volumes.StructByFunc", got.Volumes.StructByFunc, vol.StructByFunc},
		{"Volumes.RecursionWarnings", got.Volumes.RecursionWarnings, vol.RecursionWarnings},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differs from the legacy aggregation:\n got  %v\n want %v", f.field, f.got, f.want)
		}
	}
	for fn, e := range vol.ByFunc {
		if g := got.Volumes.ByFunc[fn].String(); g != e.String() {
			t.Fatalf("volume of %s renders %q, legacy %q", fn, g, e.String())
		}
		if g, w := got.Volumes.LocalByFunc[fn].String(), vol.LocalByFunc[fn].String(); g != w {
			t.Fatalf("local volume of %s renders %q, legacy %q", fn, g, w)
		}
	}
	model := append([]string{libdb.MPIParam}, p.Spec.Params[:len(p.Spec.Params)/2]...)
	c := got.Census(model)
	total, static, rel, other := legacyLoopCensus(got, model)
	if c.LoopsTotal != total || c.LoopsPrunedStatic != static || c.LoopsRelevant != rel || c.LoopsUntaintedOther != other {
		t.Fatalf("loop census %d/%d/%d/%d, legacy %d/%d/%d/%d", c.LoopsTotal, c.LoopsPrunedStatic,
			c.LoopsRelevant, c.LoopsUntaintedOther, total, static, rel, other)
	}
}

// TestPlanMatchesComputeOracle holds the per-spec plan to the legacy
// per-run computation on LULESH, MILC, a recursive module and the 25 apps
// of the golden corpus: on each module's own tainted run (where one
// exists) and on 50 seeded random label assignments.
func TestPlanMatchesComputeOracle(t *testing.T) {
	const assignments = 50
	for _, c := range planCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.cfg != nil {
				rep, err := c.prep.Analyze(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, c.prep, rep.Engine)
			}
			for seed := int64(1); seed <= assignments; seed++ {
				checkAgainstOracle(t, c.prep, randomEngine(c.prep, rand.New(rand.NewSource(seed))))
			}
		})
	}
}

// bareRun executes the tainted run of cfg the way Analyze sets it up and
// returns how long Machine.Run took: what Analyze costs beyond it is
// machine set-up plus the aggregation stages.
func bareRun(tb testing.TB, p *core.Prepared, cfg apps.Config) time.Duration {
	tb.Helper()
	eng := taint.NewEngine()
	mach := interp.NewMachine(p.Module)
	mach.Taint = eng
	mach.Fuel = 4_000_000_000
	mach.Mode = p.Mode
	mach.Prog = p.Program
	labels := make([]taint.Label, len(p.Spec.Params))
	for i, prm := range p.Spec.Params {
		labels[i] = eng.Table.Base(prm)
	}
	p.DB.Bind(mach, eng, libdb.RunConfig{CommSize: int64(cfg["p"]), Rank: 0})
	args := apps.TaintArgs(p.Spec, cfg)
	start := time.Now()
	if _, err := mach.Run("main", args, labels); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

var reportSink *core.Report

// BenchmarkAnalyzeAggregate reports what Prepared.Analyze costs on top of
// the bare tainted run (aggregate-ns/op), on the LULESH row of the oracle
// table at a cheap and at a mid-size design point. ns/op and allocs/op are
// those of the whole Analyze call.
func BenchmarkAnalyzeAggregate(b *testing.B) {
	lulesh := planCases(b)[0]
	for _, size := range []float64{4, 15} {
		b.Run(fmt.Sprintf("lulesh/size%g", size), func(b *testing.B) {
			cfg := lulesh.cfg.Clone()
			cfg["size"] = size
			var analyze, bare time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Whichever of the two runs second finds warmer caches, so
				// the order alternates.
				if i%2 == 1 {
					b.StopTimer()
					bare += bareRun(b, lulesh.prep, cfg)
					b.StartTimer()
				}
				start := time.Now()
				rep, err := lulesh.prep.Analyze(cfg)
				analyze += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				reportSink = rep
				if i%2 == 0 {
					b.StopTimer()
					bare += bareRun(b, lulesh.prep, cfg)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(analyze-bare)/float64(b.N), "aggregate-ns/op")
		})
	}
}
