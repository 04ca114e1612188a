package extrap

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestConstantMetric pins the degenerate dataset every sweep produces
// for parameter-independent functions: the search must settle on the
// constant hypothesis, not hallucinate structure.
func TestConstantMetric(t *testing.T) {
	d := NewDataset("p")
	for _, p := range []float64{2, 4, 8, 16, 32} {
		d.Add(map[string]float64{"p": p}, 7, 7, 7)
	}
	m, err := ModelSingle(d, "p", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsConstant() {
		t.Fatalf("constant data fit a parametric model: %s", m)
	}
	if math.Abs(m.Constant-7) > 1e-9 {
		t.Fatalf("constant off: %v", m.Constant)
	}
	mm, err := ModelMulti(d, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.IsConstant() {
		t.Fatalf("multi search broke the constant: %s", mm)
	}
}

// TestSinglePoint: one design point can only support the constant
// hypothesis; the fit must succeed (not crash or go singular) and the
// cross-validation score must be unusable, not misleading.
func TestSinglePoint(t *testing.T) {
	d := NewDataset("p")
	d.Add(map[string]float64{"p": 8}, 3.5)
	m, err := ModelSingle(d, "p", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsConstant() || math.Abs(m.Constant-3.5) > 1e-9 {
		t.Fatalf("single-point fit: %s", m)
	}
	if !math.IsInf(m.CV, 1) {
		t.Fatalf("CV on one point should be +Inf, got %v", m.CV)
	}
}

// TestRankDeficient feeds a multi-parameter dataset whose parameters
// are perfectly collinear (p == size everywhere): product hypotheses go
// singular and must be skipped, not returned as garbage coefficients.
func TestRankDeficient(t *testing.T) {
	d := NewDataset("p", "size")
	for _, v := range []float64{2, 4, 8, 16, 32} {
		d.Add(map[string]float64{"p": v, "size": v}, 3*v)
	}
	m, err := ModelMulti(d, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range m.Terms {
		for _, c := range []float64{term.Coeff, m.Constant} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("non-finite coefficient in %s", m)
			}
		}
	}
}

// TestNonFiniteGuard: NaN/Inf anywhere in a dataset must be rejected at
// validation, before it can poison a normal-equation solve.
func TestNonFiniteGuard(t *testing.T) {
	cases := []struct {
		name string
		fill func(*Dataset)
	}{
		{"NaN value", func(d *Dataset) { d.Add(map[string]float64{"p": 2}, math.NaN()) }},
		{"Inf value", func(d *Dataset) { d.Add(map[string]float64{"p": 2}, math.Inf(1)) }},
		{"NaN param", func(d *Dataset) { d.Add(map[string]float64{"p": math.NaN()}, 1) }},
		{"Inf param", func(d *Dataset) { d.Add(map[string]float64{"p": math.Inf(-1)}, 1) }},
	}
	for _, tc := range cases {
		d := NewDataset("p")
		d.Add(map[string]float64{"p": 4}, 2)
		tc.fill(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
		if _, err := ModelSingle(d, "p", DefaultOptions()); err == nil {
			t.Errorf("%s: ModelSingle fit non-finite data", tc.name)
		}
	}
}

// TestFitAllSurfacesTypedErrors pins the FitError contract: a failing
// request yields a nil model and a *FitError naming the job, never a
// zero-value model, and sibling requests are unaffected.
func TestFitAllSurfacesTypedErrors(t *testing.T) {
	good := NewDataset("p")
	for _, p := range []float64{2, 4, 8, 16} {
		good.Add(map[string]float64{"p": p}, 2*p)
	}
	bad := NewDataset("p") // empty: validation must fail

	fits := FitAll([]Request{
		{Name: "good", Dataset: good, Param: "p"},
		{Name: "bad", Dataset: bad, Param: "p"},
		{Name: "bad-multi", Dataset: bad},
	}, DefaultOptions(), 2)

	if fits[0].Err != nil || fits[0].Model == nil {
		t.Fatalf("good fit poisoned by sibling failure: %+v", fits[0])
	}
	for _, f := range fits[1:] {
		if f.Err == nil {
			t.Fatalf("%s: failure dropped", f.Name)
		}
		if f.Model != nil {
			t.Fatalf("%s: zero-value model returned alongside the error", f.Name)
		}
		var fe *FitError
		if !errors.As(f.Err, &fe) {
			t.Fatalf("%s: error %v is not a *FitError", f.Name, f.Err)
		}
		if fe.Name != f.Name {
			t.Fatalf("FitError names %q, want %q", fe.Name, f.Name)
		}
		if !strings.Contains(fe.Error(), f.Name) {
			t.Fatalf("FitError message omits the job: %q", fe.Error())
		}
	}
	if fits[1].Err.(*FitError).Param != "p" {
		t.Fatalf("single-parameter failure lost its param: %+v", fits[1].Err)
	}
}
