package extrap

import (
	"fmt"
	"math"
	"testing"
)

// TestCheckMatchesFitErrors: on every dataset, Check returns exactly the
// error of every fit — ModelMulti under the black-box, force-constant and
// allowed-parameter priors, and ModelSingle.
func TestCheckMatchesFitErrors(t *testing.T) {
	point := func(p, s float64, vals ...float64) Point {
		return Point{Params: map[string]float64{"p": p, "s": s}, Values: vals}
	}
	good := []Point{point(2, 10, 3, 3.1), point(4, 10, 5), point(8, 10, 9), point(2, 20, 4), point(4, 20, 7), point(8, 20, 12)}
	with := func(extra ...Point) []Point { return append(append([]Point(nil), good...), extra...) }
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		points  []Point
		wantErr bool
	}{
		{"fittable", good, false},
		{"one point", good[:1], false},
		{"empty", nil, true},
		{"no measurements", with(point(16, 10)), true},
		{"missing parameter", with(Point{Params: map[string]float64{"p": 16}, Values: []float64{1}}), true},
		{"NaN value", with(point(16, 10, nan)), true},
		{"+Inf value", with(point(16, 10, 1, inf)), true},
		{"-Inf value", with(point(16, 10, -inf)), true},
		{"NaN parameter", with(point(nan, 10, 1)), true},
		{"+Inf parameter", with(point(16, inf, 1)), true},
		{"-Inf parameter", with(point(-inf, 10, 1)), true},
		{"mean overflows", with(point(16, 10, 1e308, 1e308)), true},
		{"sum of means overflows", []Point{point(2, 10, 1e308), point(4, 10, 1e308)}, true},
	}
	priors := map[string]*Prior{
		"black-box":      nil,
		"force-constant": {ForceConstant: true},
		"allowed p":      {Allowed: map[string]bool{"p": true}},
	}
	errText := func(err error) string { return fmt.Sprint(err) }
	for _, tc := range cases {
		d := &Dataset{ParamNames: []string{"p", "s"}, Points: tc.points}
		want := Check(d)
		if (want != nil) != tc.wantErr {
			t.Errorf("%s: Check = %v, want error %v", tc.name, want, tc.wantErr)
		}
		for name, prior := range priors {
			m, err := ModelMulti(d, DefaultOptions(), prior)
			if errText(err) != errText(want) || (err == nil) != (m != nil) {
				t.Errorf("%s: ModelMulti(%s) = %v, %v; Check = %v", tc.name, name, m, err, want)
			}
		}
		for _, param := range []string{"p", "s"} {
			m, err := ModelSingle(d, param, DefaultOptions())
			if errText(err) != errText(want) || (err == nil) != (m != nil) {
				t.Errorf("%s: ModelSingle(%s) = %v, %v; Check = %v", tc.name, param, m, err, want)
			}
		}
	}
}
