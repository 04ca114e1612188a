package runner

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/apps"
)

// Axis is one swept parameter of a Design: the parameter name and the
// values it takes, in sweep order. It is the repository's one axis type,
// on the wire (POST /v1/sweep, POST /v1/models, `perftaint model
// -config`) and in process.
type Axis struct {
	// Param names the swept parameter.
	Param string `json:"param"`
	// Values are the axis levels in sweep order.
	Values []float64 `json:"values"`
}

// Design declares a full-factorial parameter sweep over one spec: every
// combination of axis values layered over the default configuration. It is
// the batch analog of the paper's modeling designs (e.g. the 25-point
// p × size grid of Table 2). Check is the one place a design is judged
// legal and sized, Configs the one place it is expanded.
type Design struct {
	Spec     *apps.Spec
	Defaults apps.Config
	Axes     []Axis
}

// MaxPoints is the cap in-process callers hand Check: the largest design
// an int-indexed slice can hold. A daemon passes its own, far smaller one.
const MaxPoints = math.MaxInt

// Check reports whether the design is legal and how many configurations
// it expands to: at least one axis, no axis empty or repeated, at most
// max points, and a smallest point (Corner) that passes the spec's
// CheckConfig — which covers the whole grid, since every point sets the
// same parameter names and no point has a smaller p. The running product
// is compared with max before each multiplication, so it cannot overflow
// however many axes a request stacks up.
func (d Design) Check(max int) (n int, err error) {
	if len(d.Axes) == 0 {
		return 0, errors.New("design has no axes")
	}
	n = 1
	seen := make(map[string]bool, len(d.Axes))
	for _, ax := range d.Axes {
		switch {
		case len(ax.Values) == 0:
			return 0, fmt.Errorf("axis %q has no values", ax.Param)
		case seen[ax.Param]:
			return 0, fmt.Errorf("axis %q repeated", ax.Param)
		case len(ax.Values) > max/n:
			return 0, fmt.Errorf("design exceeds the cap of %d configs", max)
		}
		seen[ax.Param] = true
		n *= len(ax.Values)
	}
	if err := d.Spec.CheckConfig(d.Corner(false)); err != nil {
		return 0, err
	}
	return n, nil
}

// Corner returns the design point with every axis at its largest value,
// or at its smallest: the smallest point is the cheapest member of the
// design family (a model extraction taints there), the largest is where
// fitted models are ranked.
func (d Design) Corner(largest bool) apps.Config {
	cfg := d.Defaults.Clone()
	for _, ax := range d.Axes {
		v := ax.Values[0]
		for _, w := range ax.Values[1:] {
			if (largest && w > v) || (!largest && w < v) {
				v = w
			}
		}
		cfg[ax.Param] = v
	}
	return cfg
}

// Configs expands the design into its configuration grid, row-major with
// the last axis varying fastest — a deterministic order, so sweep results
// are reproducible and comparable across runs.
func (d Design) Configs() []apps.Config {
	n := 1
	for _, ax := range d.Axes {
		n *= len(ax.Values)
	}
	if len(d.Axes) == 0 || n == 0 {
		return nil
	}
	out := make([]apps.Config, 0, n)
	idx := make([]int, len(d.Axes))
	for {
		cfg := d.Defaults.Clone()
		for i, ax := range d.Axes {
			cfg[ax.Param] = ax.Values[idx[i]]
		}
		out = append(out, cfg)
		// Odometer increment, last axis fastest.
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(d.Axes[k].Values) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}
