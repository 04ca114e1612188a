package extrap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPowLogEval(t *testing.T) {
	cases := []struct {
		pl   PowLog
		x    float64
		want float64
	}{
		{PowLog{I: 1, J: 0}, 8, 8},
		{PowLog{I: 2, J: 0}, 3, 9},
		{PowLog{I: 0, J: 1}, 8, 3},
		{PowLog{I: 1, J: 1}, 4, 8},
		{PowLog{I: 0.5, J: 0}, 16, 4},
		{PowLog{I: 0, J: 0}, 99, 1},
		{PowLog{I: 2, J: 0}, 0.5, 1}, // clamped below 1
	}
	for _, tc := range cases {
		if got := tc.pl.Eval(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%+v.Eval(%g) = %g, want %g", tc.pl, tc.x, got, tc.want)
		}
	}
}

func TestDefaultSpaceMatchesPaper(t *testing.T) {
	s := DefaultSpace()
	if s.MaxTerms != 2 {
		t.Fatalf("MaxTerms = %d, want 2", s.MaxTerms)
	}
	if len(s.J) != 3 {
		t.Fatalf("J = %v, want {0,1,2}", s.J)
	}
	// I must include 0, 1/4 ... 3 (the paper's 18-element set).
	if len(s.I) != 18 {
		t.Fatalf("len(I) = %d, want 18", len(s.I))
	}
	if s.HypothesisCount() <= 0 {
		t.Fatal("hypothesis count must be positive")
	}
}

func TestDatasetCoVAndReliability(t *testing.T) {
	d := NewDataset("p")
	d.Add(map[string]float64{"p": 2}, 10, 10.2, 9.8)
	d.Add(map[string]float64{"p": 4}, 20, 20.1, 19.9)
	if !d.Reliable() {
		t.Fatalf("low-noise data flagged unreliable (MaxCoV=%g)", d.MaxCoV())
	}
	d.Add(map[string]float64{"p": 8}, 10, 30) // wild repeat
	if d.Reliable() {
		t.Fatal("noisy data passed the CoV filter")
	}
}

func TestDatasetValidate(t *testing.T) {
	d := NewDataset("p", "s")
	if err := d.Validate(); err == nil {
		t.Fatal("empty dataset must fail validation")
	}
	d.Add(map[string]float64{"p": 1}, 1) // missing s
	if err := d.Validate(); err == nil {
		t.Fatal("missing parameter must fail validation")
	}
}

func TestLstsqExactLine(t *testing.T) {
	// y = 3 + 2x.
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11}
	c, ok := lsq([][]float64{x}, y, -1)
	if !ok {
		t.Fatal("exact line reported singular")
	}
	if math.Abs(c[0]-3) > 1e-9 || math.Abs(c[1]-2) > 1e-9 {
		t.Fatalf("coeffs = %v, want [3 2]", c)
	}
	// Leaving a row out of an exact line changes nothing.
	if c, ok = lsq([][]float64{x}, y, 2); !ok || math.Abs(c[0]-3) > 1e-9 || math.Abs(c[1]-2) > 1e-9 {
		t.Fatalf("leave-one-out coeffs = %v (ok=%v), want [3 2]", c, ok)
	}
}

func TestLstsqSingular(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 2, 3}
	if _, ok := lsq([][]float64{x, {2, 4, 6}}, y, -1); ok {
		t.Fatal("collinear design must be singular")
	}
	if _, ok := lsq(nil, nil, -1); ok {
		t.Fatal("empty system must error")
	}
	if _, ok := lsq([][]float64{x[:2]}, y[:2], 0); ok {
		t.Fatal("one row cannot determine two coefficients")
	}
}

func synthSingle(f func(x float64) float64, xs []float64) *Dataset {
	d := NewDataset("x")
	for _, x := range xs {
		d.Add(map[string]float64{"x": x}, f(x))
	}
	return d
}

var sweep = []float64{4, 8, 16, 32, 64, 128}

func TestModelSingleRecoversLinear(t *testing.T) {
	d := synthSingle(func(x float64) float64 { return 5 + 2*x }, sweep)
	m, err := ModelSingle(d, "x", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{10, 100, 256} {
		want := 5 + 2*x
		got := m.Eval(map[string]float64{"x": x})
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("linear recovery at %g: got %g want %g (model %s)", x, got, want, m)
		}
	}
	if m.IsConstant() {
		t.Fatal("linear data fitted constant")
	}
}

func TestModelSingleRecoversCubic(t *testing.T) {
	d := synthSingle(func(x float64) float64 { return 1e-5 * x * x * x }, []float64{25, 30, 35, 40, 45})
	m, err := ModelSingle(d, "x", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Eval(map[string]float64{"x": 50})
	want := 1e-5 * 50 * 50 * 50
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("cubic extrapolation: got %g want %g (model %s)", got, want, m)
	}
}

func TestModelSingleRecoversLogShape(t *testing.T) {
	d := synthSingle(func(x float64) float64 { return 10 + 4*math.Log2(x) }, sweep)
	m, err := ModelSingle(d, "x", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Eval(map[string]float64{"x": 1024})
	want := 10 + 4*10.0
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("log extrapolation: got %g want %g (model %s)", got, want, m)
	}
}

func TestModelSingleConstantStaysConstant(t *testing.T) {
	d := synthSingle(func(x float64) float64 { return 7 }, sweep)
	m, err := ModelSingle(d, "x", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsConstant() {
		t.Fatalf("noise-free constant fitted %s", m)
	}
	if math.Abs(m.Constant-7) > 1e-9 {
		t.Fatalf("constant = %g, want 7", m.Constant)
	}
}

func TestModelSingleOverfitsNoisyConstantWithTrainingSelection(t *testing.T) {
	// This reproduces the failure mode of black-box modeling the paper
	// attacks: a constant function plus noise is frequently assigned a
	// parametric model when ranking by training error.
	rng := rand.New(rand.NewSource(7))
	overfits := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		d := NewDataset("x")
		for _, x := range sweep {
			var reps []float64
			for r := 0; r < 5; r++ {
				reps = append(reps, 100*(1+0.05*rng.NormFloat64()))
			}
			d.Add(map[string]float64{"x": x}, reps...)
		}
		m, err := ModelSingle(d, "x", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !m.IsConstant() {
			overfits++
		}
	}
	if overfits == 0 {
		t.Fatal("training-error selection never overfitted noisy constants; the B1 experiment premise would not hold")
	}
}

func TestTwoTermModelRecovery(t *testing.T) {
	// f = 3x + 100 log2(x): needs both terms.
	d := synthSingle(func(x float64) float64 { return 3*x + 100*math.Log2(x) }, sweep)
	m, err := ModelSingle(d, "x", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Eval(map[string]float64{"x": 512})
	want := 3*512 + 100*9.0
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("two-term extrapolation: got %g want %g (model %s)", got, want, m)
	}
}

func synthMulti(f func(p, s float64) float64, ps, ss []float64, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset("p", "s")
	for _, p := range ps {
		for _, s := range ss {
			var reps []float64
			for r := 0; r < 5; r++ {
				reps = append(reps, f(p, s)*(1+noise*rng.NormFloat64()))
			}
			d.Add(map[string]float64{"p": p, "s": s}, reps...)
		}
	}
	return d
}

var (
	pVals = []float64{4, 8, 16, 32, 64}
	sVals = []float64{32, 64, 128, 256, 512}
)

func TestModelMultiRecoversMultiplicative(t *testing.T) {
	d := synthMulti(func(p, s float64) float64 { return 1e-4 * p * s }, pVals, sVals, 0, 1)
	m, err := ModelMulti(d, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Multiplicative() {
		t.Fatalf("p*s data fitted non-multiplicative model %s", m)
	}
	got := m.Eval(map[string]float64{"p": 128, "s": 1024})
	want := 1e-4 * 128 * 1024
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("multiplicative extrapolation: got %g want %g", got, want)
	}
}

func TestModelMultiRecoversAdditive(t *testing.T) {
	d := synthMulti(func(p, s float64) float64 { return 2*p + 3*s }, pVals, sVals, 0, 2)
	m, err := ModelMulti(d, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Eval(map[string]float64{"p": 128, "s": 1024})
	want := 2*128 + 3*1024.0
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("additive extrapolation: got %g want %g (model %s)", got, want, m)
	}
}

func TestPriorForceConstant(t *testing.T) {
	d := synthMulti(func(p, s float64) float64 { return 100 }, pVals, sVals, 0.08, 3)
	prior := &Prior{ForceConstant: true}
	m, err := ModelMulti(d, DefaultOptions(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsConstant() {
		t.Fatalf("forced-constant prior produced %s", m)
	}
}

func TestPriorRemovesFalseDependency(t *testing.T) {
	// True function depends on s only; noise may induce a p-dependency in
	// the black-box model. The prior restricted to {s} must exclude p.
	d := synthMulti(func(p, s float64) float64 { return 1e-3 * s * s }, pVals, sVals, 0.05, 4)
	prior := &Prior{Allowed: map[string]bool{"s": true}}
	m, err := ModelMulti(d, DefaultOptions(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if m.DependsOn("p") {
		t.Fatalf("prior failed to exclude p: %s", m)
	}
}

func TestPriorBlocksMultiplicativeCoupling(t *testing.T) {
	d := synthMulti(func(p, s float64) float64 { return 2*p + 3*s }, pVals, sVals, 0, 5)
	prior := &Prior{
		MulOK: func(group []string) bool { return len(group) < 2 },
	}
	m, err := ModelMulti(d, DefaultOptions(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if m.Multiplicative() {
		t.Fatalf("prior failed to block product terms: %s", m)
	}
}

func TestModelStringRendering(t *testing.T) {
	m := &Model{
		Constant: 127,
		Terms: []Term{{
			Coeff:   2.86,
			Factors: map[string]PowLog{"r": {I: 0, J: 2}},
		}},
	}
	s := m.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	// Should mention the log factor and the constant.
	if !contains(s, "log2(r)^2") || !contains(s, "127") {
		t.Fatalf("rendering %q missing pieces", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCombinations(t *testing.T) {
	got := combinations([]string{"a", "b", "c"}, 2)
	if len(got) != 3 {
		t.Fatalf("combinations = %v, want 3 pairs", got)
	}
}

// Property: the single-parameter search recovers exact PMNF shapes from the
// default space well enough to interpolate within the training range.
func TestModelSingleRecoveryProperty(t *testing.T) {
	shapes := []PowLog{{I: 1}, {I: 2}, {I: 0, J: 1}, {I: 1, J: 1}, {I: 0.5}}
	prop := func(shapeIdx uint8, coeffSeed uint8) bool {
		pl := shapes[int(shapeIdx)%len(shapes)]
		coeff := 1 + float64(coeffSeed%50)
		f := func(x float64) float64 { return 10 + coeff*pl.Eval(x) }
		d := synthSingle(f, sweep)
		m, err := ModelSingle(d, "x", DefaultOptions())
		if err != nil {
			return false
		}
		for _, x := range []float64{6, 24, 96} {
			want := f(x)
			got := m.Eval(map[string]float64{"x": x})
			if math.Abs(got-want) > 0.1*math.Abs(want)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: model evaluation is monotone for positive-coefficient single
// terms — a sanity property for extrapolation use.
func TestModelEvalFiniteProperty(t *testing.T) {
	prop := func(x uint16) bool {
		m := &Model{Constant: 1, Terms: []Term{{Coeff: 2, Factors: map[string]PowLog{"x": {I: 1.5, J: 1}}}}}
		v := m.Eval(map[string]float64{"x": float64(x%4096) + 1})
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValidationPenalizesTinyData(t *testing.T) {
	d := synthSingle(func(x float64) float64 { return x }, []float64{2, 4})
	s := newSearch(d.values(), 1, SelectTraining)
	copy(s.cols[0], []float64{2, 4})
	if cv := s.crossValidate(0); !math.IsInf(cv, 1) {
		t.Fatalf("cv on 2 points = %g, want +Inf", cv)
	}
}

func TestSliceForHoldsOthersAtMinimum(t *testing.T) {
	d := NewDataset("p", "s")
	for _, p := range []float64{2, 4} {
		for _, s := range []float64{10, 20} {
			d.Add(map[string]float64{"p": p, "s": s}, p*100+s)
		}
	}
	g := newGrids(DefaultSpace()).get(d, d.ParamNames)
	sweep := g.axes[0].sweep
	if g.axes[0].name != "p" || len(sweep) != 2 {
		t.Fatalf("sweep of %s = rows %v, want 2 rows of p", g.axes[0].name, sweep)
	}
	for _, r := range sweep {
		if pt := d.Points[r]; pt.Mean() != pt.Params["p"]*100+10 {
			t.Fatalf("sweep picked wrong s: %+v", pt)
		}
	}
}
