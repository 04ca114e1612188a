package extrap

import (
	"errors"
	"math"
)

// errSingular reports an unsolvable (rank-deficient) least-squares system;
// the corresponding hypothesis is discarded.
var errSingular = errors.New("extrap: singular normal equations")

const (
	// maxTerms is the most terms any search puts in one hypothesis.
	maxTerms = 3
	// maxCols is the widest design matrix: the constant plus maxTerms.
	maxCols = maxTerms + 1
)

// lsq solves min ||A c - y||^2 for c via the normal equations
// (A^T A) c = A^T y with Gaussian elimination and partial pivoting. Column
// 0 of A is the constant 1 and column t+1 is cols[t]; the row skip (none
// when negative) is left out, which is how a leave-one-out fold is fitted
// without copying the data. Rows accumulate in dataset order: the sums are
// floating-point, so the order is part of the result. ok is false, and c
// zero, for a rank-deficient or underdetermined system or a non-finite
// solution.
func lsq(cols [][]float64, y []float64, skip int) (c [maxCols]float64, ok bool) {
	k := len(cols) + 1
	rows := len(y)
	if skip >= 0 {
		rows--
	}
	if rows <= 0 || rows < k {
		return c, false
	}
	var n normal
	var b [maxCols]float64
	accumulate(&n, &b, cols, y, len(y), skip)
	var e elimination
	if !e.factorize(&n, k) || !e.solve(&b) {
		return c, false
	}
	return b, true
}

// normal is the normal matrix A^T A of a least-squares system.
type normal [maxCols][maxCols]float64

// accumulate adds the normal equations of lsq's design over rows
// 0..rows-1 except skip, in row order, to the matrix n = A^T A and, when
// y is not nil, to the right-hand side b = A^T y.
func accumulate(n *normal, b *[maxCols]float64, cols [][]float64, y []float64, rows, skip int) {
	k := len(cols) + 1
	var row [maxCols]float64
	row[0] = 1
	for r := 0; r < rows; r++ {
		if r == skip {
			continue
		}
		for t, col := range cols {
			row[t+1] = col[r]
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				n[i][j] += row[i] * row[j]
			}
		}
		if y != nil {
			for i := 0; i < k; i++ {
				b[i] += row[i] * y[r]
			}
		}
	}
	// Products commute exactly, so the lower triangle sums the same
	// addends in the same order as the upper one.
	for i := 1; i < k; i++ {
		for j := 0; j < i; j++ {
			n[i][j] = n[j][i]
		}
	}
}

// elimination is the matrix half of a Gauss-Jordan elimination with
// partial pivoting: per column the row swapped into the pivot position,
// the pivot's inverse and the multiplier every other row was reduced by.
// None of it depends on a right-hand side, so one factorization of a
// design serves every measurement fitted on it.
type elimination struct {
	k     int
	pivot [maxCols]uint8
	inv   [maxCols]float64
	// mult[col][r] is the multiple of the pivot row subtracted from row
	// r; 0 where the row was left alone (the pivot row itself, or a row
	// already zero in that column).
	mult [maxCols][maxCols]float64
}

// factorize eliminates the k x k matrix n in place and records the steps
// in e, which must be zero; it reports false when a pivot falls below the
// singular guard.
func (e *elimination) factorize(n *normal, k int) bool {
	e.k = k
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(n[r][col]) > math.Abs(n[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(n[pivot][col]) < 1e-12 {
			return false
		}
		n[col], n[pivot] = n[pivot], n[col]
		e.pivot[col] = uint8(pivot)
		inv := 1 / n[col][col]
		e.inv[col] = inv
		for j := col; j < k; j++ {
			n[col][j] *= inv
		}
		for r := 0; r < k; r++ {
			if r == col || n[r][col] == 0 {
				continue
			}
			f := n[r][col]
			e.mult[col][r] = f
			for j := col; j < k; j++ {
				n[r][j] -= f * n[col][j]
			}
		}
	}
	return true
}

// solve replays the elimination on the right-hand side b, in place: the
// same swaps, scalings and reductions, in the same order, as eliminating
// the matrix augmented with b, so b ends up holding exactly those
// coefficients. It reports false when a coefficient is NaN or infinite.
func (e *elimination) solve(b *[maxCols]float64) bool {
	k := e.k
	for col := 0; col < k; col++ {
		p := e.pivot[col]
		b[col], b[p] = b[p], b[col]
		b[col] *= e.inv[col]
		for r, f := range e.mult[col][:k] {
			if f != 0 {
				b[r] -= f * b[col]
			}
		}
	}
	for _, v := range b[:k] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// search is one dataset laid out for hypothesis fitting: the per-point
// mean measurements and a table of candidate basis columns over the same
// rows. A hypothesis is a list of column indices.
type search struct {
	y    []float64
	cols [][]float64
	sel  Selection
}

// newSearch allocates a search over y with n candidate columns for the
// caller to fill.
func newSearch(y []float64, n int, sel Selection) *search {
	flat := make([]float64, n*len(y))
	s := &search{y: y, cols: make([][]float64, n), sel: sel}
	for i := range s.cols {
		s.cols[i] = flat[i*len(y) : (i+1)*len(y)]
	}
	return s
}

// fitted is one fitted hypothesis: constant + sum coef[t+1]*cols[terms[t]].
type fitted struct {
	terms [maxTerms]int
	k     int
	coef  [maxCols]float64
	// rss and smape are the fit quality on the training data; score is
	// what the selection policy ranks by.
	rss, smape, score float64
}

func (s *search) columns(terms []int) (cs [maxTerms][]float64) {
	for i, t := range terms {
		cs[i] = s.cols[t]
	}
	return cs
}

// predict evaluates a fitted hypothesis at row r the way Model.Eval does:
// the constant, then += coefficient*shape in term order.
func predict(c *[maxCols]float64, cs [][]float64, r int) float64 {
	v := c[0]
	for t, col := range cs {
		v += c[t+1] * col[r]
	}
	return v
}

// smapeTerm is one point's contribution to the symmetric mean absolute
// percentage error; a point predicted and measured as zero adds nothing.
func smapeTerm(pred, actual float64) float64 {
	den := math.Abs(pred) + math.Abs(actual)
	if den == 0 {
		return 0
	}
	return 2 * math.Abs(pred-actual) / den
}

// fit fits constant + coefficients for the hypothesis and scores it.
func (s *search) fit(terms ...int) (fitted, bool) {
	var f fitted
	all := s.columns(terms)
	cs := all[:len(terms)]
	c, ok := lsq(cs, s.y, -1)
	if !ok {
		return f, false
	}
	f.k = copy(f.terms[:], terms)
	f.coef = c
	sum := 0.0
	for r, y := range s.y {
		pred := predict(&c, cs, r)
		d := pred - y
		f.rss += d * d
		sum += smapeTerm(pred, y)
	}
	f.smape = sum / float64(len(s.y))
	f.score = f.smape
	if s.sel == SelectCV {
		f.score = s.crossValidate(terms...)
	}
	return f, true
}

// crossValidate computes the leave-one-out SMAPE of a hypothesis: for each
// point, refit on the remainder and predict the left-out value. Hypotheses
// that become singular under any fold are penalized with +Inf.
func (s *search) crossValidate(terms ...int) float64 {
	n := len(s.y)
	if n < len(terms)+2 {
		return math.Inf(1)
	}
	all := s.columns(terms)
	cs := all[:len(terms)]
	sum := 0.0
	for leave := 0; leave < n; leave++ {
		c, ok := lsq(cs, s.y, leave)
		if !ok {
			return math.Inf(1)
		}
		sum += smapeTerm(predict(&c, cs, leave), s.y[leave])
	}
	return sum / float64(n)
}
