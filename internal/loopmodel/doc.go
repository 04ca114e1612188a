// Package loopmodel implements the symbolic iteration-volume algebra of
// Section 4: count(L) = g(p1..pn) for each loop with the parameter set
// delivered by the taint analysis, sequencing of loop nests composing
// additively and nesting composing multiplicatively (Claims 1-2), and the
// recursive accumulation over the call tree yielding the asymptotic compute
// volume of the whole program (Theorem 1). The resulting dependency
// structure — additive groups of multiplicative parameter sets — is the
// prior the hybrid modeler feeds to Extra-P.
//
// The computation is split by what it depends on. A Plan holds everything
// that is a function of the module alone — call graph, recursion set,
// bottom-up order, loop forests with their call sites, static trip counts,
// library volumes — and is built once per module; Plan.Evaluate composes
// the volumes of one tainted run from the parameter sets of its
// non-constant loops. A Plan is immutable and shared by all runs; the
// Volumes it evaluates to share its constant sub-expressions and the
// parameter slices the caller passed in, and are never written afterwards.
package loopmodel
