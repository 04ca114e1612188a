package loopmodel

// StaticTrip supplies the statically resolved constant trip count of a loop
// (ok=false when the loop is not statically constant).
type StaticTrip func(fn string, loopID int) (count int64, ok bool)

// ExternVolume supplies the symbolic volume contribution of a call to a
// library function outside the module (nil when irrelevant). The library
// database uses this to inject analytic dependencies such as log(p) for
// collectives.
type ExternVolume func(callee string) Expr

// Volumes holds the per-function inclusive iteration volumes and their
// dependency structures for a whole module.
type Volumes struct {
	// ByFunc is the inclusive volume of each function: its own loop nests
	// plus the accumulated volumes of its callees (Theorem 1).
	ByFunc map[string]Expr
	// LocalByFunc is the function's own loop-nest volume without callees.
	LocalByFunc map[string]Expr
	// StructByFunc is the normalized dependency structure per function.
	StructByFunc map[string]Structure
	// RecursionWarnings names functions on call-graph cycles whose volumes
	// are over-approximated as unknown (Section 4.1's warning).
	RecursionWarnings []string
}

// RequiredExperiments computes the size of the experiment design for the
// given structure when each parameter takes points values: additive-only
// structures need per-parameter sweeps sharing one base point, whereas any
// multiplicative coupling requires the full cross product over the coupled
// group (Section A2's p×s vs p+s example).
func RequiredExperiments(st Structure, points map[string]int) int {
	if len(st.Groups) == 0 {
		return 1
	}
	// Partition parameters into connected components of multiplicative
	// coupling; each component costs the product of its point counts, and
	// components combine additively sharing a common base point.
	params := st.Params()
	parent := make(map[string]string, len(params))
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range params {
		parent[p] = p
	}
	for _, g := range st.Groups {
		for i := 1; i < len(g); i++ {
			parent[find(g[i])] = find(g[0])
		}
	}
	comp := make(map[string][]string)
	for _, p := range params {
		r := find(p)
		comp[r] = append(comp[r], p)
	}
	total := 1 // shared base point
	for _, members := range comp {
		prod := 1
		for _, p := range members {
			n := points[p]
			if n <= 0 {
				n = 1
			}
			prod *= n
		}
		total += prod - 1 // component sweep reuses the base point
	}
	return total
}

// FullFactorialExperiments is the naive design size: the cross product over
// all parameters (what a black-box modeler must run without the prior).
func FullFactorialExperiments(st Structure, points map[string]int) int {
	total := 1
	for _, p := range st.Params() {
		n := points[p]
		if n <= 0 {
			n = 1
		}
		total *= n
	}
	return total
}
