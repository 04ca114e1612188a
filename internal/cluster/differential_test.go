package cluster_test

// This file is an external test package because internal/measure and
// internal/appgen, which supply the instrumentation filters and the
// generated corpus, import internal/cluster.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/runner"
)

const (
	diffReps = 3
	diffSeed = 20231
)

// diffNoise is a source with both noise terms on, so a draw taken out of
// order shows in every value after it.
func diffNoise() *noise.Source { return noise.New(diffSeed, 0.02, 1e-6) }

// flatten names every datum of a profile: the repeats of each FuncSeconds
// entry, the application repeats, the two scalars and the call counts.
func flatten(p *cluster.Profile) map[string]float64 {
	out := make(map[string]float64)
	for name, reps := range p.FuncSeconds {
		for i, v := range reps {
			out[fmt.Sprintf("FuncSeconds[%s][%d]", name, i)] = v
		}
	}
	for i, v := range p.AppSeconds {
		out[fmt.Sprintf("AppSeconds[%d]", i)] = v
	}
	out["BaseSeconds"] = p.BaseSeconds
	out["OverheadSeconds"] = p.OverheadSeconds
	for name, v := range p.Calls {
		out["Calls["+name+"]"] = v
	}
	return out
}

// ulps is the distance between two floats in representable values.
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.Signbit(a) != math.Signbit(b) {
		return math.MaxUint64
	}
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// sameBits reports whether two flattened profiles have the same data, bit
// for bit.
func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// diffCase is one (runner, configuration, instrumented set) the new path is
// compared with the oracle at.
type diffCase struct {
	label string
	run   *cluster.Runner
	cfg   apps.Config
	set   map[string]bool
}

// diffStats counts what a comparison saw.
type diffStats struct {
	values, identical int
	unstable          map[string]int // oracle data that depend on its iteration order, by name
}

// ulpLimits bounds how far a datum may lie from the oracle's: stable
// applies to one the oracle yields under every iteration order tried (0:
// bit-identical), the others to one that depends on the order, measured
// from the interval the oracle's values span. The application-wide sums —
// BaseSeconds and AppSeconds (main's inclusive time, one term per callee of
// main) and OverheadSeconds (one term per instrumented function) — get
// their own bound: they add hundreds of terms, and a fixed order can sit
// well outside the cluster of the shuffled ones. MILC's main calls its 55
// kernels and then 236 setup helpers of equal tiny cost; adding those last,
// as body order does, rounds the same way 236 times.
type ulpLimits struct{ stable, unstable, unstableTotals uint64 }

// oracleSpan evaluates the oracle at c under n more iteration orders drawn
// from orders and widens [lo, hi] to what it yields.
func oracleSpan(t *testing.T, c diffCase, n int, orders *rand.Rand, lo, hi map[string]float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		op, err := oracleMeasure(c.run, c.cfg, c.set, diffReps, diffNoise(), orders)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.label, err)
		}
		o := flatten(op)
		if len(lo) != 0 && len(o) != len(lo) {
			t.Fatalf("%s: oracle yields %d data, then %d", c.label, len(lo), len(o))
		}
		for k, v := range o {
			if _, ok := lo[k]; !ok {
				lo[k], hi[k] = v, v
			}
			lo[k], hi[k] = math.Min(lo[k], v), math.Max(hi[k], v)
		}
	}
}

// compare holds Measure at c to the oracle under orders iteration orders:
// the same set of data, each within lim of the oracle's. Order dependence
// can hide — most orders of a long sum round alike — so before a datum that
// looked stable is reported as different, the oracle gets ten times the
// orders to show that it cannot reproduce the value either.
func (st *diffStats) compare(t *testing.T, c diffCase, orders int, lim ulpLimits) {
	t.Helper()
	prof, err := c.run.Measure(c.cfg, c.set, diffReps, diffNoise())
	if err != nil {
		t.Fatalf("%s: Measure: %v", c.label, err)
	}
	got := flatten(prof)
	lo, hi := make(map[string]float64), make(map[string]float64)
	rng := rand.New(rand.NewSource(diffSeed))
	oracleSpan(t, c, orders, rng, lo, hi)
	outside := func(k string) uint64 {
		g := got[k]
		if g >= lo[k] && g <= hi[k] {
			return 0
		}
		return min(ulps(g, lo[k]), ulps(g, hi[k]))
	}
	for k := range lo {
		if lo[k] == hi[k] && outside(k) > lim.stable {
			oracleSpan(t, c, 9*orders, rng, lo, hi)
			orders *= 10
			break
		}
	}
	if len(got) != len(lo) {
		t.Errorf("%s: %d data, oracle has %d", c.label, len(got), len(lo))
	}
	for k := range lo {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: %s missing (oracle %g)", c.label, k, lo[k])
			continue
		}
		limit := lim.stable
		if lo[k] != hi[k] {
			limit = lim.unstable
			if k == "BaseSeconds" || k == "OverheadSeconds" || strings.HasPrefix(k, "AppSeconds") {
				limit = lim.unstableTotals
			}
			if st.unstable == nil {
				st.unstable = make(map[string]int)
			}
			st.unstable[c.run.Spec.Name+" "+k]++
		}
		st.values++
		d := outside(k)
		if d == 0 && lo[k] == hi[k] {
			st.identical++
		}
		if d > limit {
			t.Errorf("%s: %s = %g (%#x), oracle %g (%#x) to %g under %d orders: %d ulp outside, limit %d",
				c.label, k, got[k], math.Float64bits(got[k]), lo[k], math.Float64bits(lo[k]), hi[k], orders, d, limit)
		}
	}
}

func (st *diffStats) log(t *testing.T) {
	t.Helper()
	names := make([]string, 0, len(st.unstable))
	dependent := 0
	for k, n := range st.unstable {
		names = append(names, k)
		dependent += n
	}
	sort.Strings(names)
	t.Logf("%d values compared: %d the oracle yields under every order, all but %d of them bit-identical; %d values of %d data depend on its iteration order:",
		st.values, st.values-dependent, st.values-dependent-st.identical, dependent, len(names))
	for _, k := range names {
		t.Logf("  %s (%d configurations)", k, st.unstable[k])
	}
}

var diffFilters = []measure.Filter{measure.FilterNone, measure.FilterDefault, measure.FilterFull}

func luleshGrid() []apps.Config {
	var out []apps.Config
	for _, p := range []float64{2, 4, 8, 16, 64} {
		for _, size := range []float64{11, 13, 15, 17, 30} {
			cfg := apps.LULESHDefaults()
			cfg["p"], cfg["size"] = p, size
			out = append(out, cfg)
		}
	}
	return out
}

func milcAt32() apps.Config {
	cfg := apps.MILCDefaults()
	cfg["p"], cfg["size"] = 32, 64
	return cfg
}

// TestMeasureMatchesOracle is the differential gate of the compiled
// ground-truth plan: over LULESH, MILC and the generated corpus' own
// designs, under three instrumentation filters, every datum of a noisy
// Profile equals the replaced evaluator's wherever that evaluator yields
// one value under 20 iteration orders of its maps, and is within 4 ulp of
// its values where it does not (64 ulp for the application-wide sums, see
// ulpLimits); the log names those data.
func TestMeasureMatchesOracle(t *testing.T) {
	var cases []diffCase
	add := func(spec *apps.Spec, cfgs []apps.Config) {
		run := cluster.NewRunner(spec)
		for _, f := range diffFilters {
			set := measure.Select(spec, f, nil)
			for _, cfg := range cfgs {
				cases = append(cases, diffCase{fmt.Sprintf("%s/%s@%v", spec.Name, f, cfg), run, cfg, set})
			}
		}
	}
	add(apps.LULESH(), luleshGrid())
	add(apps.MILC(), []apps.Config{apps.MILCTaintConfig(), milcAt32()})
	for _, arch := range appgen.Archetypes() {
		for _, seed := range appgen.DefaultCorpusSeeds() {
			app, err := appgen.Generate(arch, seed)
			if err != nil {
				t.Fatal(err)
			}
			add(app.Spec, runner.Design{Defaults: app.Design.Defaults, Axes: app.Design.Axes}.Configs())
		}
	}
	var st diffStats
	for _, c := range cases {
		st.compare(t, c, 20, ulpLimits{stable: 0, unstable: 4, unstableTotals: 64})
	}
	st.log(t)
}

// genSpec is a small generated call DAG holding what neither application
// nor the corpus has: a leaf shared by three callers at different
// multiplicities, zero-trip and negative-bound loops, a Branch with two
// live arms, functions main never reaches, an MPI call under zero
// multiplicity and a routine listed twice in MPIUsed.
type genSpec struct {
	spec      *apps.Spec
	threshold float64
}

func (genSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	n := func(lo, hi int) float64 { return float64(lo + r.Intn(hi-lo+1)) }
	work := func() apps.Stmt { return apps.Work{Units: n(1, 50)} }
	loop := func(bound float64, body ...apps.Stmt) apps.Stmt {
		return apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(bound), Body: body}
	}
	ploop := func(q apps.Quantity, body ...apps.Stmt) apps.Stmt {
		return apps.Loop{Kind: apps.ParamBound, Bound: q, Body: body}
	}
	call := func(name string) apps.Stmt { return apps.Call{Callee: name} }
	count := apps.QP(n(1, 64), "n", 1)
	mpi := func(name string) apps.Stmt { return apps.Call{Callee: name, CountArg: &count} }
	fn := func(name string, body ...apps.Stmt) *apps.FuncSpec {
		return &apps.FuncSpec{Name: name, Kind: apps.KindKernel, Body: body,
			WorkNanos: 1 + 9*r.Float64(), MemIntensity: r.Float64(), ImbalanceSkew: 0.2 * r.Float64()}
	}
	threshold := n(4, 12)

	main := fn("main",
		ploop(apps.QP(n(1, 4), "n", 1), call("a"), loop(n(2, 7), call("b"))),
		loop(n(2, 9), call("c")),
		call("shared"),
		loop(0, call("cold"), mpi("MPI_Bcast")), // zero-trip: reached, never run
		loop(-n(1, 5), call("a")),               // a negative bound is zero trips
		mpi("MPI_Allreduce"),
	)
	main.Kind = apps.KindMain
	a := fn("a", work(), loop(n(1, 6), call("shared")), mpi("MPI_Isend"), mpi("MPI_Irecv"))
	b := fn("b", work(), ploop(apps.QP(n(1, 3), "n", 1).Times("p", -1), call("shared")), call("c"))
	c := fn("c", work(),
		apps.Branch{Param: "n", Less: threshold,
			Then: []apps.Stmt{loop(n(1, 5), call("shared")), mpi("MPI_Isend")},
			Else: []apps.Stmt{call("late"), loop(n(2, 4), work())}},
	)
	c.HWFactorPExp = 0.25
	shared := fn("shared", work(), loop(n(1, 9), work()))
	cold := fn("cold", work(), mpi("MPI_Barrier"))
	late := fn("late", work(), call("shared"), mpi("MPI_Irecv"))
	orphan := fn("orphan", work(), call("shared"), call("orphanLeaf"), mpi("MPI_Bcast"))
	orphanLeaf := fn("orphanLeaf", work())

	funcs := []*apps.FuncSpec{main, a, b, c, shared, cold, late, orphan, orphanLeaf}
	rest := funcs[1:]
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return reflect.ValueOf(genSpec{
		spec: &apps.Spec{
			Name:    "generated",
			Params:  []string{"n"},
			Funcs:   funcs,
			MPIUsed: []string{"MPI_Isend", "MPI_Bcast", "MPI_Irecv", "MPI_Isend", "MPI_Allreduce", "MPI_Barrier"},
		},
		threshold: threshold,
	})
}

// TestMeasureMatchesOracleOnGeneratedSpecs holds the new path to the oracle
// on generated DAGs, on both sides of the Branch. With three call paths
// into one leaf the oracle's sums have no fixed order and the plan adds per
// call edge where the oracle adds per call path, so times are compared to
// 64 ulp; the set of data and every call count (integers: exact under any
// order) must be the oracle's. What the oracle does at the edge cases is
// pinned beside the comparison: a call under zero multiplicity is in Calls
// with count zero and has no FuncSeconds entry, an untaken arm and an
// unreachable function leave no Calls entry, and a routine listed twice
// draws its noise twice.
func TestMeasureMatchesOracleOnGeneratedSpecs(t *testing.T) {
	var st diffStats
	prop := func(gs genSpec) bool {
		run := cluster.NewRunner(gs.spec)
		for _, n := range []float64{gs.threshold - 1, gs.threshold + 3} {
			cfg := apps.Config{"n": n, "p": 8}
			for _, f := range []measure.Filter{measure.FilterNone, measure.FilterFull} {
				set := measure.Select(gs.spec, f, nil)
				if f == measure.FilterFull {
					set["MPI_Isend"] = true // probes on a routine count as events too
				}
				st.compare(t, diffCase{fmt.Sprintf("n=%g/%s", n, f), run, cfg, set}, 1, ulpLimits{64, 64, 64})
			}
			prof, err := run.Measure(cfg, nil, diffReps, diffNoise())
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := oracleMeasure(run, cfg, nil, diffReps, diffNoise(), rand.New(rand.NewSource(diffSeed)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prof.Calls, oracle.Calls) {
				t.Errorf("n=%g: Calls = %v, oracle %v", n, prof.Calls, oracle.Calls)
			}
			for _, name := range []string{"cold", "MPI_Barrier", "MPI_Bcast"} {
				if v, ok := prof.Calls[name]; !ok || v != 0 {
					t.Errorf("n=%g: Calls[%s] = %g, %t; want an entry of 0 (called under a zero-trip loop)", n, name, v, ok)
				}
			}
			for _, name := range []string{"MPI_Barrier", "MPI_Bcast"} {
				if _, ok := prof.FuncSeconds[name]; ok {
					t.Errorf("n=%g: FuncSeconds has %s, which was never called", n, name)
				}
			}
			_, late := prof.Calls["late"]
			if want := n >= gs.threshold; late != want {
				t.Errorf("n=%g (threshold %g): Calls has late = %t, want %t", n, gs.threshold, late, want)
			}
			for _, name := range []string{"orphan", "orphanLeaf"} {
				if _, ok := prof.Calls[name]; ok {
					t.Errorf("n=%g: Calls has unreachable %s", n, name)
				}
				if got := prof.FuncSeconds[name]; len(got) != diffReps {
					t.Errorf("n=%g: FuncSeconds[%s] = %v, want %d noise draws around zero", n, name, got, diffReps)
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(diffSeed))}); err != nil {
		t.Error(err)
	}
	t.Logf("%d values compared under one oracle order each, %d bit-identical", st.values, st.identical)
}

// TestMeasureDeterministic: identical arguments and seed give identical
// bits, every time. The replaced evaluator summed in map-iteration order
// and failed this on MILC at p = 32 (FuncSeconds[MPI_Isend], BaseSeconds,
// AppSeconds) and on LULESH (main's inclusive time). The test can only say
// that there is one accumulation order; apps.Plan.Evaluate's comment says
// which.
func TestMeasureDeterministic(t *testing.T) {
	lulesh := apps.LULESHDefaults()
	lulesh["p"], lulesh["size"] = 8, 13
	for _, c := range []struct {
		spec *apps.Spec
		cfg  apps.Config
	}{{apps.MILC(), milcAt32()}, {apps.LULESH(), lulesh}} {
		run := cluster.NewRunner(c.spec)
		set := measure.Select(c.spec, measure.FilterFull, nil)
		var first map[string]float64
		for i := 0; i < 100; i++ {
			prof, err := run.Measure(c.cfg, set, diffReps, diffNoise())
			if err != nil {
				t.Fatal(err)
			}
			got := flatten(prof)
			if first == nil {
				first = got
			} else if !sameBits(first, got) {
				t.Fatalf("%s: call %d differs from the first", c.spec.Name, i)
			}
		}
	}
}

// TestMeasureAllocations keeps a string-keyed map or a per-function slice
// from coming back unnoticed: the replaced evaluator allocated 1,144 times
// per LULESH measurement.
func TestMeasureAllocations(t *testing.T) {
	spec := apps.LULESH()
	run := cluster.NewRunner(spec)
	cfg := luleshGrid()[0]
	set := measure.Select(spec, measure.FilterFull, nil)
	src := diffNoise()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := run.Measure(cfg, set, diffReps, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Measure on LULESH allocates %.0f times, ceiling 40", allocs)
	}
}

// TestMeasureSharedRunner: the plan is read-only after construction, so
// eight goroutines measuring on one Runner (here a literal, whose plan the
// first of them compiles) with their own noise sources get what eight
// sequential calls get. Run under -race.
func TestMeasureSharedRunner(t *testing.T) {
	spec := apps.LULESH()
	set := measure.Select(spec, measure.FilterDefault, nil)
	cfgs := luleshGrid()[:8]
	want := make([]map[string]float64, len(cfgs))
	sequential := cluster.NewRunner(spec)
	for i, cfg := range cfgs {
		prof, err := sequential.Measure(cfg, set, diffReps, noise.New(int64(i), 0.02, 1e-6))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = flatten(prof)
	}
	shared := &cluster.Runner{Spec: spec, Cost: sequential.Cost, Machine: sequential.Machine, Intrusion: sequential.Intrusion}
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof, err := shared.Measure(cfg, set, diffReps, noise.New(int64(i), 0.02, 1e-6))
			if err != nil {
				t.Error(err)
				return
			}
			if !sameBits(want[i], flatten(prof)) {
				t.Errorf("goroutine %d: profile differs from the sequential one", i)
			}
		}()
	}
	wg.Wait()
}
