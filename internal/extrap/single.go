package extrap

import (
	"math"
	"sort"
)

// Selection chooses how competing hypotheses are ranked.
type Selection int

// Selection policies. SelectTraining mirrors classic Extra-P behaviour of
// minimizing the fit error on the training data — fast, but prone to the
// overfitting on noisy constants the paper highlights. SelectCV ranks by
// leave-one-out cross-validation, which is more robust but cannot replace
// the structural prior (noise can still masquerade as parameter effects).
const (
	SelectTraining Selection = iota
	SelectCV
)

// Options configures the model search.
type Options struct {
	Space Space
	// Selection policy; defaults to SelectTraining (Extra-P's behaviour).
	Selection Selection
	// MinImprovement is the relative score improvement a more complex
	// hypothesis must deliver over a simpler one to be accepted.
	MinImprovement float64
	// CandidateTerms bounds how many best single-term hypotheses seed the
	// two-term search (Extra-P's search-space reduction heuristic).
	CandidateTerms int
}

// DefaultOptions returns the configuration used across the evaluation.
func DefaultOptions() Options {
	return Options{
		Space:          DefaultSpace(),
		Selection:      SelectTraining,
		MinImprovement: 0.01,
		CandidateTerms: 12,
	}
}

// orDefault replaces options without a search space by DefaultOptions.
func (o Options) orDefault() Options {
	if o.Space.MaxTerms == 0 {
		return DefaultOptions()
	}
	return o
}

// ModelSingle fits the best PMNF model in one parameter. The search follows
// Extra-P: fit the constant hypothesis, then every one-term hypothesis,
// then two-term combinations seeded by the best one-term candidates, and
// keep additional complexity only when it buys at least MinImprovement.
func ModelSingle(d *Dataset, param string, opt Options) (*Model, error) {
	opt = opt.orDefault()
	return modelSingle(d, param, opt, newGrids(opt.Space))
}

func modelSingle(d *Dataset, param string, opt Options, gs *grids) (*Model, error) {
	y, err := check(d)
	if err != nil {
		return nil, err
	}
	ax := &gs.get(d, []string{param}).axes[0]
	shapes := gs.shapes
	// Candidate column s is shape s of the parameter over every point.
	s := newSearch(y, len(shapes), opt.Selection)
	for si := range shapes {
		ax.column(s.cols[si], si, nil)
	}

	best, _ := s.fit() // check solved this system

	var oneTerm []fitted
	for si := range shapes {
		if f, ok := s.fit(si); ok {
			oneTerm = append(oneTerm, f)
		}
	}
	sort.Slice(oneTerm, func(i, j int) bool { return oneTerm[i].score < oneTerm[j].score })

	if len(oneTerm) > 0 && improves(oneTerm[0].score, best.score, opt.MinImprovement) {
		best = oneTerm[0]
	}

	if opt.Space.MaxTerms >= 2 {
		k := opt.CandidateTerms
		if k <= 0 {
			k = 3
		}
		if k > len(oneTerm) {
			k = len(oneTerm)
		}
		bestTwo := fitted{score: math.Inf(1)}
		for ci := 0; ci < k; ci++ {
			first := oneTerm[ci].terms[0]
			for si, pl := range shapes {
				if pl == shapes[first] {
					continue
				}
				if f, ok := s.fit(first, si); ok && f.score < bestTwo.score {
					bestTwo = f
				}
			}
		}
		if bestTwo.k > 0 && improves(bestTwo.score, best.score, opt.MinImprovement) {
			best = bestTwo
		}
	}

	return s.model(best, func(col int) map[string]PowLog {
		return map[string]PowLog{param: shapes[col]}
	}), nil
}

// model materializes the winning hypothesis, with its leave-one-out
// cross-validation, as the Model callers see; factors renders a candidate
// column as PMNF factors.
func (s *search) model(f fitted, factors func(col int) map[string]PowLog) *Model {
	m := &Model{Constant: f.coef[0], RSS: f.rss, SMAPE: f.smape}
	for t, col := range f.terms[:f.k] {
		m.Terms = append(m.Terms, Term{Coeff: f.coef[t+1], Factors: factors(col)})
	}
	m.CV = s.crossValidate(f.terms[:f.k]...)
	return m
}

// improves reports whether candidate beats incumbent by the relative margin.
func improves(candidate, incumbent, margin float64) bool {
	if math.IsInf(candidate, 1) {
		return false
	}
	if incumbent == 0 {
		return false
	}
	return candidate < incumbent*(1-margin)
}
