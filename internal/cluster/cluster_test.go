package cluster

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpisim"
	"repro/internal/noise"
)

func TestContentionFactorShape(t *testing.T) {
	m := Skylake()
	if got := m.ContentionFactor(0.8, 1); got != 1 {
		t.Fatalf("single rank contention = %g, want 1", got)
	}
	if got := m.ContentionFactor(0, 36); got != 1 {
		t.Fatalf("zero intensity contention = %g, want 1", got)
	}
	// Monotone in r and in memory intensity.
	if !(m.ContentionFactor(0.8, 18) > m.ContentionFactor(0.8, 4)) {
		t.Fatal("contention must grow with co-location")
	}
	if !(m.ContentionFactor(0.9, 18) > m.ContentionFactor(0.2, 18)) {
		t.Fatal("contention must grow with memory intensity")
	}
	// C1 regime: around +50% for a memory-bound function at full socket.
	f := m.ContentionFactor(0.85, 18)
	if f < 1.2 || f > 2.2 {
		t.Fatalf("contention at r=18 = %g, want ~1.5", f)
	}
}

func TestRanksPerNodePacking(t *testing.T) {
	m := Skylake()
	if got := m.RanksPerNode(8); got != 8 {
		t.Fatalf("RanksPerNode(8) = %d", got)
	}
	if got := m.RanksPerNode(729); got != 36 {
		t.Fatalf("RanksPerNode(729) = %d, want 36", got)
	}
}

func TestMeasureProducesProfiles(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 27
	cfg["size"] = 25
	cfg["iters"] = 50

	prof, err := r.Measure(cfg, nil, 3, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	if prof.OverheadSeconds != 0 {
		t.Fatalf("uninstrumented overhead = %g, want 0", prof.OverheadSeconds)
	}
	if len(prof.FuncSeconds["CalcForceForNodes"]) != 3 {
		t.Fatal("wrong repeat count")
	}
	if prof.BaseSeconds <= 0 {
		t.Fatal("no base time")
	}
	// MPI functions with calls must be measured too.
	if _, ok := prof.FuncSeconds["MPI_Allreduce"]; !ok {
		t.Fatal("MPI function missing from profile")
	}
}

func TestFullInstrumentationDwarfsTaintSet(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 64
	cfg["size"] = 30
	cfg["iters"] = 100

	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	small := map[string]bool{"main": true, "CalcQForElems": true}

	pf, err := r.Measure(cfg, full, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := r.Measure(cfg, small, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	if pf.OverheadSeconds < 50*ps.OverheadSeconds {
		t.Fatalf("full overhead %gs vs selective %gs: getter storm missing",
			pf.OverheadSeconds, ps.OverheadSeconds)
	}
}

func TestSkewAppliesOnlyUnderHeavyInstrumentation(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 729
	cfg["size"] = 30
	cfg["iters"] = 500

	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	taint := map[string]bool{"CalcQForElems": true}

	pf, err := r.Measure(cfg, full, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := r.Measure(cfg, taint, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	tf := pf.FuncSeconds["CalcQForElems"][0]
	tt := pt.FuncSeconds["CalcQForElems"][0]
	if tf < 2*tt {
		t.Fatalf("full-instr time %gs vs filtered %gs: intrusion invisible", tf, tt)
	}
}

func TestContentionAffectsMeasurements(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 64
	cfg["size"] = 30
	cfg["iters"] = 100

	r.RanksPerNodeOverride = 2
	lo, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	r.RanksPerNodeOverride = 18
	hi, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	r.RanksPerNodeOverride = 0

	a := lo.FuncSeconds["CalcQForElems"][0]
	b := hi.FuncSeconds["CalcQForElems"][0]
	if b <= a*1.1 {
		t.Fatalf("no contention slowdown: %g -> %g", a, b)
	}
	// Ratio should be in the C1 regime (~1.5x for memory-bound kernels).
	if b/a > 3 {
		t.Fatalf("contention too strong: %gx", b/a)
	}
}

func TestCoreHours(t *testing.T) {
	spec := apps.LULESH()
	r := NewRunner(spec)
	cfg := apps.LULESHDefaults()
	cfg["p"] = 27
	cfg["size"] = 25
	cfg["iters"] = 100

	ch, err := r.CoreHours(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch <= 0 {
		t.Fatal("core-hours must be positive")
	}
	full := make(map[string]bool)
	for _, f := range spec.Funcs {
		full[f.Name] = true
	}
	chFull, err := r.CoreHours(cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	if chFull <= ch {
		t.Fatal("instrumented run must cost more")
	}
}

func TestReachesMPI(t *testing.T) {
	pl, err := NewRunner(apps.LULESH()).compiled()
	if err != nil {
		t.Fatal(err)
	}
	reaches := func(name string) bool { return pl.ReachesMPI[pl.Index(name)] }
	if !reaches("CalcQForElems") {
		t.Error("CalcQForElems reaches MPI via CommSBN")
	}
	if !reaches("main") {
		t.Error("main reaches MPI")
	}
	if reaches("Domain_get000") {
		t.Error("getter does not reach MPI")
	}
}

func TestImbalanceFactorShape(t *testing.T) {
	m := Skylake()
	if m.ImbalanceFactor(0.3, 1) != 1 {
		t.Error("single rank cannot straggle")
	}
	if m.ImbalanceFactor(0, 64) != 1 {
		t.Error("zero skew must not stretch")
	}
	f16, f64 := m.ImbalanceFactor(0.3, 16), m.ImbalanceFactor(0.3, 64)
	if !(f64 > f16 && f16 > 1) {
		t.Errorf("imbalance must grow with p: f(16)=%g f(64)=%g", f16, f64)
	}
	// log2 shape: 1 + skew*log2(p).
	if got, want := m.ImbalanceFactor(0.5, 16), 1+0.5*4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ImbalanceFactor(0.5,16) = %g, want %g", got, want)
	}
}

// TestImbalanceStretchesMeasurement pins the Measure-side application: a
// skewed function's measured time is its analytic ground truth times the
// imbalance factor, while an unskewed sibling stays at ground truth. The
// ground truth itself must remain rank-symmetric (no skew term).
func TestImbalanceStretchesMeasurement(t *testing.T) {
	s := &apps.Spec{
		Name:   "imb",
		Params: []string{"n"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, Body: []apps.Stmt{
				apps.Call{Callee: "worker"}, apps.Call{Callee: "steady"},
			}},
			{Name: "worker", Kind: apps.KindKernel, WorkNanos: 10, ImbalanceSkew: 0.4,
				Body: []apps.Stmt{apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1),
					Body: []apps.Stmt{apps.Work{Units: 100}}}}},
			{Name: "steady", Kind: apps.KindKernel, WorkNanos: 10,
				Body: []apps.Stmt{apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1),
					Body: []apps.Stmt{apps.Work{Units: 100}}}}},
		},
	}
	r := NewRunner(s)
	r.RanksPerNodeOverride = 1 // no contention, isolate the imbalance term
	cfg := apps.Config{"n": 50, "p": 16}
	pl, err := r.compiled()
	if err != nil {
		t.Fatal(err)
	}
	g, err := pl.Evaluate(cfg, r.Cost)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := r.Measure(cfg, nil, 1, noise.Quiet())
	if err != nil {
		t.Fatal(err)
	}
	worker, steady := g.ExclSeconds[pl.Index("worker")], g.ExclSeconds[pl.Index("steady")]
	wantWorker := worker * r.Machine.ImbalanceFactor(0.4, 16)
	if got := prof.FuncSeconds["worker"][0]; math.Abs(got-wantWorker) > 1e-12*wantWorker {
		t.Errorf("worker measured %g, want %g (ground %g stretched)", got, wantWorker, worker)
	}
	if got, want := prof.FuncSeconds["steady"][0], steady; math.Abs(got-want) > 1e-12*want {
		t.Errorf("steady measured %g, want ground truth %g", got, want)
	}
	if worker != steady {
		t.Error("ground truth must stay rank-symmetric: skew is a measurement effect")
	}
}

// TestMeasureReportsSpecAndConfigErrors: a Runner on a spec that does not
// validate, or asked for a configuration that lacks a parameter, answers
// every Measure with the error ground-truth evaluation has always given —
// the plan is compiled once, its error is not spent by the first call —
// whether NewRunner built it or a literal did.
func TestMeasureReportsSpecAndConfigErrors(t *testing.T) {
	fn := func(name string, kind apps.Kind, callees ...string) *apps.FuncSpec {
		f := &apps.FuncSpec{Name: name, Kind: kind, WorkNanos: 1, Body: []apps.Stmt{apps.Work{Units: 1}}}
		for _, c := range callees {
			f.Body = append(f.Body, apps.Call{Callee: c})
		}
		return f
	}
	spec := func(name string, funcs ...*apps.FuncSpec) *apps.Spec {
		return &apps.Spec{Name: name, Params: []string{"n"}, Funcs: funcs, MPIUsed: []string{"MPI_Barrier"}}
	}
	full := apps.Config{"n": 4, "p": 2}
	for _, c := range []struct {
		name string
		spec *apps.Spec
		cfg  apps.Config
		want string
	}{
		{"unknown callee", spec("u", fn("main", apps.KindMain, "ghost")), full,
			`apps: main calls unknown "ghost"`},
		{"duplicate function", spec("d", fn("main", apps.KindMain, "k"), fn("k", apps.KindKernel), fn("k", apps.KindKernel)), full,
			`apps: duplicate function "k"`},
		{"call cycle", spec("c", fn("main", apps.KindMain, "a"), fn("a", apps.KindKernel, "b"), fn("b", apps.KindKernel, "a")), full,
			`apps: spec "c": call cycle a -> b -> a`},
		{"missing parameter", spec("m", fn("main", apps.KindMain, "MPI_Barrier")), apps.Config{"p": 2},
			`apps: config missing parameter "n"`},
		{"missing p", spec("p", fn("main", apps.KindMain, "MPI_Barrier")), apps.Config{"n": 4},
			`apps: config missing implicit parameter p`},
	} {
		for how, r := range map[string]*Runner{
			"NewRunner": NewRunner(c.spec),
			"literal":   {Spec: c.spec, Cost: mpisim.DefaultCost(), Machine: Skylake(), Intrusion: DefaultIntrusion()},
		} {
			for call := 1; call <= 3; call++ {
				prof, err := r.Measure(c.cfg, nil, 2, noise.Quiet())
				if err == nil || err.Error() != c.want || prof != nil {
					t.Errorf("%s, %s, call %d: profile %v, error %v; want error %q", c.name, how, call, prof, err, c.want)
				}
			}
			if _, err := r.CoreHours(c.cfg, nil); err == nil || err.Error() != c.want {
				t.Errorf("%s, %s: CoreHours error %v, want %q", c.name, how, err, c.want)
			}
			// A configuration error says nothing about the runner.
			if len(c.cfg) < len(full) {
				if _, err := r.Measure(full, nil, 2, noise.Quiet()); err != nil {
					t.Errorf("%s, %s: complete configuration after a failed one: %v", c.name, how, err)
				}
			}
		}
	}
}
