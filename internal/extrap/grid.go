package extrap

import (
	"sort"
	"sync"
)

// grid is the coordinate half of a dataset, laid out for the model search:
// per parameter, the distinct values it takes, every shape of the search
// space evaluated at each of them, and the rows of its one-parameter sweep.
// A basis column x^I*log2(x)^J over the dataset's points is then a gather
// from that table, so the search calls math.Pow once per (parameter, shape,
// distinct value) instead of once per (hypothesis, point, pass).
//
// A grid depends on the coordinates only, never on the measurements, so one
// grid serves every dataset measured on the same design. It is immutable
// after newGrid returns and safe for concurrent use.
type grid struct {
	shapes []PowLog
	axes   []axis
	// x holds the raw coordinates, x[axis][row]; grids.get compares it to
	// recognize a design it has already laid out.
	x [][]float64
}

// axis is one parameter of a grid.
type axis struct {
	name string
	// vals are the distinct values of the parameter, ascending; idx maps
	// each row to its value's position in vals.
	vals []float64
	idx  []int
	// basis[s][v] is shapes[s].Eval(vals[v]).
	basis [][]float64
	// sweep lists, in dataset order, the rows where every other parameter
	// sits at its minimum: the line of the experiment design Extra-P's
	// first heuristic models in isolation.
	sweep []int
	// sweepElim[s] factors the one-term normal matrix of shape s over the
	// sweep; nil when the sweep has fewer than three rows.
	sweepElim []oneTermElim
}

// oneTermElim packs the elimination of a two-column normal matrix: the
// first column may pivot on the second row, the second never swaps, and
// each column reduces the one other row.
type oneTermElim struct {
	inv [2]float64
	// mult[0] reduced row 1 at column 0, mult[1] row 0 at column 1.
	mult [2]float64
	swap bool // column 0 pivoted on row 1
	ok   bool // false: the system is singular
}

// packOneTerm packs the successful factorization of a two-column system.
func packOneTerm(e *elimination) oneTermElim {
	return oneTermElim{
		inv:  [2]float64{e.inv[0], e.inv[1]},
		mult: [2]float64{e.mult[0][1], e.mult[1][0]},
		swap: e.pivot[0] == 1,
		ok:   true,
	}
}

// unpack writes the elimination into e, whose entries outside a
// two-column elimination must be zero.
func (o *oneTermElim) unpack(e *elimination) {
	e.k = 2
	e.pivot[0], e.pivot[1] = 0, 1
	if o.swap {
		e.pivot[0] = 1
	}
	e.inv[0], e.inv[1] = o.inv[0], o.inv[1]
	e.mult[0][1], e.mult[1][0] = o.mult[0], o.mult[1]
}

// coordinates extracts the columns of the named parameters from the
// dataset's points; a parameter absent from a point reads as 1, as it does
// in Term evaluation.
func coordinates(d *Dataset, names []string) [][]float64 {
	flat := make([]float64, len(names)*len(d.Points))
	x := make([][]float64, len(names))
	for a, name := range names {
		x[a] = flat[a*len(d.Points) : (a+1)*len(d.Points)]
		for r, p := range d.Points {
			x[a][r] = paramOr1(p.Params, name)
		}
	}
	return x
}

func newGrid(names []string, x [][]float64, shapes []PowLog) *grid {
	g := &grid{shapes: shapes, axes: make([]axis, len(names)), x: x}
	for a, name := range names {
		ax := &g.axes[a]
		ax.name = name
		ax.vals = append([]float64(nil), x[a]...)
		sort.Float64s(ax.vals)
		n := 0
		for i, v := range ax.vals {
			if i == 0 || v != ax.vals[n-1] {
				ax.vals[n] = v
				n++
			}
		}
		ax.vals = ax.vals[:n]
		ax.idx = make([]int, len(x[a]))
		for r, v := range x[a] {
			ax.idx[r] = sort.SearchFloat64s(ax.vals, v)
		}
		flat := make([]float64, len(shapes)*n)
		ax.basis = make([][]float64, len(shapes))
		for s, pl := range shapes {
			ax.basis[s] = flat[s*n : (s+1)*n]
			for v, val := range ax.vals {
				ax.basis[s][v] = pl.Eval(val)
			}
		}
	}
	for a := range g.axes {
		for r := range x[a] {
			atMin := true
			for b := range g.axes {
				if b != a && g.axes[b].idx[r] != 0 {
					atMin = false
					break
				}
			}
			if atMin {
				g.axes[a].sweep = append(g.axes[a].sweep, r)
			}
		}
		g.axes[a].factorSweep(len(shapes))
	}
	return g
}

// factorSweep factors, for every shape, the normal matrix of the one-term
// hypothesis over the sweep: it depends on the design only, so every
// dataset measured on it replays the factorization (sweepFit).
func (ax *axis) factorSweep(shapes int) {
	if len(ax.sweep) < 3 {
		return
	}
	ax.sweepElim = make([]oneTermElim, shapes)
	col := make([]float64, len(ax.sweep))
	for s := range ax.sweepElim {
		ax.column(col, s, ax.sweep)
		var n normal
		accumulate(&n, nil, [][]float64{col}, nil, len(col), -1)
		var e elimination
		if e.factorize(&n, 2) {
			ax.sweepElim[s] = packOneTerm(&e)
		}
	}
}

// sweepFit fits the one-term hypothesis of shape s to y over the sweep and
// returns its coefficients and training SMAPE — bit for bit what
// search.fit computes on the gathered sweep, from the stored factorization
// instead of a fresh elimination.
func (ax *axis) sweepFit(s int, y []float64) (c [maxCols]float64, smape float64, ok bool) {
	o := &ax.sweepElim[s]
	if !o.ok {
		return c, 0, false
	}
	// c starts as the right-hand side A^T y, summed in sweep order like
	// accumulate's (whose 1*y is y), and the replay turns it into the
	// coefficients.
	basis := ax.basis[s]
	for _, r := range ax.sweep {
		c[0] += y[r]
		c[1] += basis[ax.idx[r]] * y[r]
	}
	var e elimination
	o.unpack(&e)
	if !e.solve(&c) {
		return c, 0, false
	}
	sum := 0.0
	for _, r := range ax.sweep {
		pred := c[0]
		pred += c[1] * basis[ax.idx[r]]
		sum += smapeTerm(pred, y[r])
	}
	return c, sum / float64(len(ax.sweep)), true
}

// column gathers the basis column of shape s over rows (all rows when rows
// is nil) into dst.
func (ax *axis) column(dst []float64, s int, rows []int) {
	b := ax.basis[s]
	if rows == nil {
		for r, v := range ax.idx {
			dst[r] = b[v]
		}
		return
	}
	for i, r := range rows {
		dst[i] = b[ax.idx[r]]
	}
}

// grids hands out the grid of a dataset, laying each distinct design out
// once: the fits of one batch (FitAll) mostly share a single design, the
// sweep every function of an extraction was measured on.
type grids struct {
	shapes []PowLog
	mu     sync.Mutex
	known  []*grid
}

func newGrids(space Space) *grids { return &grids{shapes: space.Shapes()} }

// get returns the grid of d over the named parameters.
func (gs *grids) get(d *Dataset, names []string) *grid {
	x := coordinates(d, names)
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for _, g := range gs.known {
		if g.matches(names, x) {
			return g
		}
	}
	g := newGrid(names, x, gs.shapes)
	gs.known = append(gs.known, g)
	return g
}

func (g *grid) matches(names []string, x [][]float64) bool {
	if len(names) != len(g.axes) {
		return false
	}
	for a, name := range names {
		if name != g.axes[a].name || len(x[a]) != len(g.x[a]) {
			return false
		}
		for r, v := range x[a] {
			if v != g.x[a][r] {
				return false
			}
		}
	}
	return true
}
