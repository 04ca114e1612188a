package extrap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lsqAugmented is the solver as it was before factorization and solve were
// split: one Gauss-Jordan elimination of the normal matrix augmented with
// the right-hand side. It is the oracle lsq's replay must reproduce bit
// for bit.
func lsqAugmented(cols [][]float64, y []float64, skip int) (c [maxCols]float64, ok bool) {
	k := len(cols) + 1
	rows := len(y)
	if skip >= 0 {
		rows--
	}
	if rows <= 0 || rows < k {
		return c, false
	}
	// Normal matrix N = A^T A (k x k), augmented with rhs = A^T y.
	var n [maxCols][maxCols + 1]float64
	var row [maxCols]float64
	row[0] = 1
	for r, yr := range y {
		if r == skip {
			continue
		}
		for t, col := range cols {
			row[t+1] = col[r]
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				n[i][j] += row[i] * row[j]
			}
			n[i][k] += row[i] * yr
		}
	}
	// Gaussian elimination with partial pivoting on the augmented matrix.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(n[r][col]) > math.Abs(n[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(n[pivot][col]) < 1e-12 {
			return c, false
		}
		n[col], n[pivot] = n[pivot], n[col]
		inv := 1 / n[col][col]
		for j := col; j <= k; j++ {
			n[col][j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col || n[r][col] == 0 {
				continue
			}
			f := n[r][col]
			for j := col; j <= k; j++ {
				n[r][j] -= f * n[col][j]
			}
		}
	}
	for i := 0; i < k; i++ {
		c[i] = n[i][k]
		if math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
			return c, false
		}
	}
	return c, true
}

// randValue draws one entry of a test system: zeros, small integers,
// values whose squares sit near the singular guard, and magnitudes up to
// 1e150 of either sign.
func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(9) - 4)
	case 2:
		return (rng.Float64() + 0.5) * 1e-6
	case 3:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(301)-150))
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
}

// randSystem draws a least-squares system of 1..maxTerms columns besides
// the constant over 3..20 rows, with columns that are constant, exact
// copies or exact multiples of another column, and any skip: none, a row,
// or one past the last row. One system in eight plants an entry whose
// square overflows, so the non-finite rejection is exercised too.
func randSystem(rng *rand.Rand) (cols [][]float64, y []float64, skip int) {
	rows := 3 + rng.Intn(18)
	cols = make([][]float64, rng.Intn(maxTerms+1))
	for t := range cols {
		col := make([]float64, rows)
		switch rng.Intn(5) {
		case 0: // constant: collinear with the intercept
			v := randValue(rng)
			for r := range col {
				col[r] = v
			}
		case 1: // a multiple of an earlier column
			if t > 0 {
				src, f := cols[rng.Intn(t)], []float64{1, 2, -0.5, 3}[rng.Intn(4)]
				for r := range col {
					col[r] = f * src[r]
				}
				break
			}
			fallthrough
		default:
			for r := range col {
				col[r] = randValue(rng)
			}
		}
		cols[t] = col
	}
	y = make([]float64, rows)
	for r := range y {
		y[r] = randValue(rng)
	}
	if rng.Intn(8) == 0 {
		huge := append([][]float64{y}, cols...)[rng.Intn(len(cols)+1)]
		huge[rng.Intn(rows)] = rng.NormFloat64() * 1e200
	}
	return cols, y, rng.Intn(rows+2) - 1
}

func sameBits(a, b [maxCols]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLsqReplayMatchesAugmentedElimination: factorizing the matrix and
// replaying the steps on the right-hand side returns what eliminating the
// augmented matrix returns — the same ok and, for an accepted solve, the
// same bits of every coefficient (a rejected solve's are never read, and
// lsq returns them as zero).
func TestLsqReplayMatchesAugmentedElimination(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			cols, y, skip := randSystem(rng)
			got, gotOK := lsq(cols, y, skip)
			want, wantOK := lsqAugmented(cols, y, skip)
			if gotOK != wantOK || gotOK && !sameBits(got, want) {
				t.Logf("cols %v y %v skip %d: lsq %v %v, augmented %v %v", cols, y, skip, got, gotOK, want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// randSweepDataset draws a two- or three-parameter design of random
// coordinates (some below the clamp at 1, some repeated) and measurements
// that mix zeros, signs and magnitudes.
func randSweepDataset(rng *rand.Rand) *Dataset {
	names := []string{"p", "size", "iters"}[:2+rng.Intn(2)]
	axes := make([][]float64, len(names))
	for a := range axes {
		vals := make([]float64, 2+rng.Intn(5))
		for v := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[v] = float64(int(1) << rng.Intn(10))
			case 1:
				vals[v] = rng.Float64() * 2
			default:
				vals[v] = 1 + rng.Float64()*math.Pow(10, float64(rng.Intn(7)))
			}
		}
		axes[a] = vals
	}
	d := NewDataset(names...)
	for _, cfg := range crossProduct(names, axes...) {
		vals := make([]float64, 1+rng.Intn(3))
		for i := range vals {
			vals[i] = randValue(rng)
		}
		d.Add(cfg, vals...)
	}
	return d
}

// bestShapeSearch is bestShape as it was before the sweep factorizations:
// gather the sweep and fit every shape with a fresh search.
func bestShapeSearch(g *grid, y []float64, ax *axis, opt Options) (shape int, found bool) {
	if len(ax.sweep) < 3 {
		return 0, false
	}
	ys := make([]float64, len(ax.sweep))
	for i, r := range ax.sweep {
		ys[i] = y[r]
	}
	s := newSearch(ys, 1, opt.Selection)
	bestScore := math.Inf(1)
	for si := range g.shapes {
		ax.column(s.cols[0], si, ax.sweep)
		if f, ok := s.fit(0); ok && f.score < bestScore {
			bestScore, shape, found = f.score, si, true
		}
	}
	return shape, found
}

// TestSweepReplayMatchesSearchFit: for every shape of the default space on
// random sweeps, the replayed one-term fit returns search.fit's
// coefficients and training SMAPE bit for bit, and bestShape picks the
// shape the gathered search picks under both selection policies.
func TestSweepReplayMatchesSearchFit(t *testing.T) {
	cv := DefaultOptions()
	cv.Selection = SelectCV
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randSweepDataset(rng)
		g := newGrids(DefaultSpace()).get(d, d.ParamNames)
		y := d.values()
		for a := range g.axes {
			ax := &g.axes[a]
			if len(ax.sweep) < 3 {
				continue
			}
			ys := make([]float64, len(ax.sweep))
			for i, r := range ax.sweep {
				ys[i] = y[r]
			}
			s := newSearch(ys, 1, SelectTraining)
			for si := range g.shapes {
				ax.column(s.cols[0], si, ax.sweep)
				want, wantOK := s.fit(0)
				c, smape, ok := ax.sweepFit(si, y)
				if ok != wantOK || ok && (!sameBits(c, want.coef) || math.Float64bits(smape) != math.Float64bits(want.smape)) {
					t.Logf("axis %s shape %v: replay %v %v %v, search %v %v %v",
						ax.name, g.shapes[si], c, smape, ok, want.coef, want.smape, wantOK)
					return false
				}
			}
			for _, opt := range []Options{DefaultOptions(), cv} {
				gs, gf := bestShape(g, y, ax, opt)
				ws, wf := bestShapeSearch(g, y, ax, opt)
				if gs != ws || gf != wf {
					t.Logf("axis %s selection %v: bestShape %d %v, search %d %v", ax.name, opt.Selection, gs, gf, ws, wf)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
