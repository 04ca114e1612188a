// Package extrap reimplements the Extra-P empirical performance modeler
// used as the black-box half of Perf-Taint: the performance model normal
// form (PMNF, Equation 1), its default search space, least-squares
// hypothesis fitting, the single-parameter model search, and the
// multi-parameter heuristic that combines the best single-parameter models
// (Calotoiu et al.). Model selection uses leave-one-out cross-validation of
// the symmetric mean absolute percentage error, which penalizes the
// overfitting the paper's Section 4.5 discusses.
//
// Fitting is columnar. Every basis value x^I*log2(x)^J the searches need
// comes from a per-design table (grid) computed once per distinct
// parameter value, shared by all hypotheses, the training-prediction pass,
// the leave-one-out folds (which skip a row instead of copying the data)
// and every request of a FitAll batch measured on the same design; the
// normal equations are solved on the stack. Float operations keep one
// fixed order throughout — rows in dataset order, terms in hypothesis
// order, product factors in sorted parameter order — because fitted bits
// end up in content-addressed model sets (TestFitBitsGolden pins them).
//
// The white-box integration point is Prior: the taint analysis restricts
// which parameters may appear in a model at all (and which may couple
// multiplicatively), turning the black-box search into the paper's hybrid
// modeler. Batch fitting fans out through FitAll, whose per-request
// failures surface as typed *FitError values.
package extrap
