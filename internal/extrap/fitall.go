package extrap

import (
	"fmt"

	"repro/internal/par"
)

// Request names one model-fitting job of a batch fit: a dataset plus the
// prior restricting its search space. Repeated-measurement fits of
// different functions are independent, so FitAll runs them concurrently.
type Request struct {
	// Name tags the job (conventionally the function being modeled).
	Name    string
	Dataset *Dataset
	// Param, when non-empty, requests a single-parameter fit over that
	// parameter (ModelSingle); otherwise the multi-parameter search runs.
	Param string
	// Prior is the white-box restriction; nil means black-box.
	Prior *Prior
}

// Fit is the outcome of one Request, in request order. A failed fit
// carries a nil Model and a non-nil *FitError — callers that range over
// batch results must check Err before using Model; modelreg's pipeline
// propagates failures as typed errors instead of zero-value models.
type Fit struct {
	Name  string
	Model *Model
	// Err, when non-nil, is always a *FitError wrapping the solver or
	// validation failure of this one request.
	Err error
}

// FitError is the typed per-request failure of a batch fit: which job
// failed, over which parameter (empty for multi-parameter searches), and
// the underlying solver or validation error. errors.As-able through any
// wrapping the pipeline adds on top.
type FitError struct {
	// Name is the Request.Name of the failed job.
	Name string
	// Param is the Request.Param of a single-parameter fit, "" otherwise.
	Param string
	// Err is the underlying failure (validation, singular system, ...).
	Err error
}

// Error renders the failure with its job name.
func (e *FitError) Error() string {
	if e.Param != "" {
		return fmt.Sprintf("extrap: fit %q over %q: %v", e.Name, e.Param, e.Err)
	}
	return fmt.Sprintf("extrap: fit %q: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *FitError) Unwrap() error { return e.Err }

// FitAll fits every request on at most workers goroutines (workers <= 0
// means GOMAXPROCS) and returns results in request order. Each fit is
// independent: a failing request only marks its own Fit.Err (always a
// *FitError), never the whole batch.
func FitAll(reqs []Request, opt Options, workers int) []Fit {
	opt = opt.orDefault()
	// One layout of the design serves every request measured on it.
	gs := newGrids(opt.Space)
	out := make([]Fit, len(reqs))
	par.ForEach(workers, len(reqs), func(i int) {
		req := reqs[i]
		f := Fit{Name: req.Name}
		var err error
		if req.Param != "" {
			f.Model, err = modelSingle(req.Dataset, req.Param, opt, gs)
		} else {
			f.Model, err = modelMulti(req.Dataset, opt, req.Prior, gs)
		}
		if err != nil {
			f.Model = nil
			f.Err = &FitError{Name: req.Name, Param: req.Param, Err: err}
		}
		out[i] = f
	})
	return out
}

// Check returns the error every fit of d returns — ModelSingle, ModelMulti
// and each FitAll request over d fail exactly when Check does, with the
// same error — for the price of validation and the constant hypothesis:
// a search that gets past that prefix always ends in a model.
func Check(d *Dataset) error {
	_, err := check(d)
	return err
}

// check is the prefix of every fit: validate d and solve the constant
// hypothesis over its per-point means, which it returns.
func check(d *Dataset) ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	y := d.values()
	if _, ok := lsq(nil, y, -1); !ok {
		return nil, fmt.Errorf("extrap: constant fit failed: %w", errSingular)
	}
	return y, nil
}
