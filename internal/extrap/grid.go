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
	}
	return g
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
