package extrap

import (
	"math"
	"sort"
)

// Prior is the white-box restriction Perf-Taint derives from the taint
// analysis (Section 4.5): which parameters may appear in the model at all,
// and which parameter combinations may form multiplicative terms.
type Prior struct {
	// Allowed restricts the parameter set; nil allows every parameter.
	Allowed map[string]bool
	// MulOK reports whether the given parameter group may appear in a
	// single product term; nil allows every combination.
	MulOK func(group []string) bool
	// ForceConstant pins the model to a constant (functions whose loops
	// carry no parameter dependence).
	ForceConstant bool
}

// allowAll is the black-box prior: everything permitted.
func allowAll() *Prior { return &Prior{} }

func (p *Prior) allows(name string) bool {
	if p.Allowed == nil {
		return true
	}
	return p.Allowed[name]
}

func (p *Prior) mulOK(group []string) bool {
	if p.MulOK == nil {
		return true
	}
	return p.MulOK(group)
}

// ModelMulti fits the best multi-parameter PMNF model over the full
// dataset. Following Extra-P's multi-parameter heuristic, the search space
// is reduced to combinations of the best single-parameter models: for each
// active parameter the best one-term shape is determined on that
// parameter's sweep, and hypotheses combine those shapes additively and
// multiplicatively. prior may be nil for pure black-box modeling.
func ModelMulti(d *Dataset, opt Options, prior *Prior) (*Model, error) {
	opt = opt.orDefault()
	return modelMulti(d, opt, prior, newGrids(opt.Space))
}

func modelMulti(d *Dataset, opt Options, prior *Prior, gs *grids) (*Model, error) {
	y, err := check(d)
	if err != nil {
		return nil, err
	}
	if prior == nil {
		prior = allowAll()
	}
	flat := newSearch(y, 0, opt.Selection)
	constant, _ := flat.fit() // check solved this system
	if prior.ForceConstant {
		return flat.model(constant, nil), nil
	}

	// Active parameters: at least two distinct values and prior-allowed.
	g := gs.get(d, d.ParamNames)
	var active []*axis
	for a := range g.axes {
		if ax := &g.axes[a]; len(ax.vals) >= 2 && prior.allows(ax.name) {
			active = append(active, ax)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].name < active[j].name })
	if len(active) == 0 {
		return flat.model(constant, nil), nil
	}
	return modelRestricted(g, y, active, constant, opt, prior), nil
}

// bestShape finds the strongest single-term shape for one parameter using
// its dedicated sweep (the first multi-parameter heuristic of Extra-P).
// Under SelectCV the score is the leave-one-out SMAPE on the sweep.
func bestShape(g *grid, y []float64, ax *axis, opt Options) (shape int, found bool) {
	if len(ax.sweep) < 3 {
		return 0, false
	}
	var cv *search
	if opt.Selection == SelectCV {
		ys := make([]float64, len(ax.sweep))
		for i, r := range ax.sweep {
			ys[i] = y[r]
		}
		cv = newSearch(ys, 1, SelectCV)
	}
	bestScore := math.Inf(1)
	for si := range g.shapes {
		_, score, ok := ax.sweepFit(si, y)
		if !ok {
			continue
		}
		if cv != nil {
			ax.column(cv.cols[0], si, ax.sweep)
			score = cv.crossValidate(0)
		}
		if score < bestScore {
			bestScore, shape, found = score, si, true
		}
	}
	return shape, found
}

// poolTerm is one candidate term of the combination search: the product of
// the best shapes of its parameters (a single parameter for plain terms).
type poolTerm struct {
	axes []*axis
	// shapes[i] is the shape of axes[i].
	shapes []int
}

// modelRestricted runs the combination search over the given parameters,
// which arrive sorted by name; constant is the fitted constant hypothesis
// the search has to beat.
func modelRestricted(g *grid, y []float64, params []*axis, constant fitted, opt Options, prior *Prior) *Model {
	// Build the candidate term pool: one single term per parameter plus
	// product terms for each prior-allowed group of 2..3 parameters.
	var pool []poolTerm
	var have []string
	single := make(map[string]poolTerm, len(params))
	for _, ax := range params {
		if si, ok := bestShape(g, y, ax, opt); ok {
			t := poolTerm{axes: []*axis{ax}, shapes: []int{si}}
			pool = append(pool, t)
			single[ax.name] = t
			have = append(have, ax.name)
		}
	}
	product := func(group []string) poolTerm {
		var t poolTerm
		for _, name := range group {
			t.axes = append(t.axes, single[name].axes[0])
			t.shapes = append(t.shapes, single[name].shapes[0])
		}
		return t
	}
	for _, group := range combinations(have, 2) {
		if prior.mulOK(group) {
			pool = append(pool, product(group))
		}
	}
	if len(have) >= 3 {
		for _, group := range combinations(have, 3) {
			if prior.mulOK(group) {
				pool = append(pool, product(group))
			}
		}
	}

	// Candidate column i is pool term i over every point. Factors multiply
	// in sorted parameter order starting from 1: float rounding is
	// order-sensitive, and everything downstream of a fit — model
	// selection, cross-validation, the content-addressed ModelSet bytes —
	// must agree with Term.evalShape.
	s := newSearch(y, len(pool), opt.Selection)
	for i, t := range pool {
		col := s.cols[i]
		if len(t.axes) == 1 {
			t.axes[0].column(col, t.shapes[0], nil)
			continue
		}
		for r := range col {
			v := 1.0
			for k, ax := range t.axes {
				v *= ax.basis[t.shapes[k]][ax.idx[r]]
			}
			col[r] = v
		}
	}

	best, bestComplexity := constant, 0

	maxTerms := opt.Space.MaxTerms
	if maxTerms < 1 {
		maxTerms = 2
	}
	consider := func(terms ...int) {
		f, ok := s.fit(terms...)
		if !ok {
			return
		}
		// More terms and more coupled parameters are more complex.
		c := 0
		for _, t := range terms {
			c += 1 + len(pool[t].axes)
		}
		switch {
		case improves(f.score, best.score, opt.MinImprovement):
			best, bestComplexity = f, c
		case c < bestComplexity && f.score <= best.score:
			// Equal quality at lower complexity wins (Occam).
			best, bestComplexity = f, c
		}
	}
	for i := range pool {
		consider(i)
	}
	if maxTerms >= 2 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				consider(i, j)
			}
		}
	}
	if maxTerms >= 3 {
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				for k := j + 1; k < len(pool); k++ {
					consider(i, j, k)
				}
			}
		}
	}
	return s.model(best, func(col int) map[string]PowLog {
		t := pool[col]
		f := make(map[string]PowLog, len(t.axes))
		for k, ax := range t.axes {
			f[ax.name] = g.shapes[t.shapes[k]]
		}
		return f
	})
}

// combinations returns all k-subsets of items preserving order.
func combinations(items []string, k int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}
