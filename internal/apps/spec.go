// Package apps defines the benchmark applications of the evaluation. Each
// application is written as a declarative Spec from which two consistent
// artifacts are generated:
//
//   - an ir.Module whose loop bounds, call sites, and MPI usage realize the
//     spec (the program the taint analysis runs on), and
//   - an analytic ground-truth model (call counts and exclusive times per
//     function) used by the cluster substrate to synthesize measurements at
//     configurations far larger than the interpreted taint run.
//
// The paper evaluates LULESH and MILC su3_rmd; the specs in lulesh.go and
// milc.go reproduce their structural census (function and loop counts per
// pruning class, parameter wiring of Tables 2 and 3). This substitution
// preserves the evaluated behaviour because every experiment measures
// structural properties (which functions/loops depend on which parameters,
// how models react to noise/instrumentation), not the physics.
package apps

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Quantity is a monomial over the application parameters:
// Coeff * prod params^pow. Negative powers express per-rank partitioning
// such as volume/p.
type Quantity struct {
	Coeff float64
	Pow   map[string]int
}

// Q builds a constant quantity.
func Q(c float64) Quantity { return Quantity{Coeff: c} }

// QP builds coeff * name^pow.
func QP(c float64, name string, pow int) Quantity {
	return Quantity{Coeff: c, Pow: map[string]int{name: pow}}
}

// Times returns q scaled by name^pow.
func (q Quantity) Times(name string, pow int) Quantity {
	np := make(map[string]int, len(q.Pow)+1)
	for k, v := range q.Pow {
		np[k] = v
	}
	np[name] += pow
	return Quantity{Coeff: q.Coeff, Pow: np}
}

// Eval computes the quantity under a parameter configuration; missing
// parameters default to 1.
func (q Quantity) Eval(cfg map[string]float64) float64 {
	v := q.Coeff
	for name, pow := range q.Pow {
		x, ok := cfg[name]
		if !ok || x <= 0 {
			x = 1
		}
		v *= math.Pow(x, float64(pow))
	}
	return v
}

// EvalInt computes the quantity under a configuration with the integer
// semantics of the lowered IR (see emitQuantity): the rounded coefficient
// is clamped to at least 1, positive powers multiply first, and negative
// powers then floor-divide. This is the exact iteration count a ParamBound
// loop with this bound executes, which is what analytic ground truth for
// the dynamic engines must use.
func (q Quantity) EvalInt(cfg map[string]float64) int64 {
	c := int64(math.Round(q.Coeff))
	if c < 1 {
		c = 1
	}
	names := make([]string, 0, len(q.Pow))
	for n := range q.Pow {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if pow := q.Pow[n]; pow > 0 {
			p := int64(math.Round(cfg[n]))
			for k := 0; k < pow; k++ {
				c *= p
			}
		}
	}
	for _, n := range names {
		if pow := q.Pow[n]; pow < 0 {
			p := int64(math.Round(cfg[n]))
			if p == 0 {
				return 0
			}
			for k := 0; k > pow; k-- {
				c /= p
			}
		}
	}
	return c
}

// Params returns the parameter names with non-zero powers, sorted.
func (q Quantity) Params() []string {
	var out []string
	for name, pow := range q.Pow {
		if pow != 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// BoundKind classifies how a loop bound behaves for the analyses.
type BoundKind int

// Bound kinds: a StaticConst bound is a compile-time constant (statically
// prunable), a RuntimeConst bound is loaded from an unmarked runtime cell
// (opaque to statics, untainted dynamically — the "dynamically pruned"
// class), and a ParamBound derives from marked parameters.
const (
	StaticConst BoundKind = iota
	RuntimeConst
	ParamBound
)

// Stmt is one element of a function body.
type Stmt interface{ isStmt() }

// Loop nests statements under an iteration bound.
type Loop struct {
	Kind BoundKind
	// Bound is the iteration count: a Quantity for ParamBound, a constant
	// for the other kinds (Coeff used, powers ignored).
	Bound Quantity
	Body  []Stmt
}

// Call invokes another spec function or an MPI routine.
type Call struct {
	Callee string
	// CountArg, for MPI routines, is the message count expression passed
	// as the count argument (taint flows into the library database).
	CountArg *Quantity
}

// Work models computation of Units abstract work items per execution.
type Work struct {
	Units float64
}

// Branch selects between two bodies on a parameter threshold
// (param < Less). It models parameter-based algorithm selection (Section
// 4.4 / C2): the taint analysis sees a tainted non-loop branch, and the
// ground truth becomes piecewise in the parameter.
type Branch struct {
	Param string
	Less  float64
	Then  []Stmt
	Else  []Stmt
}

func (Loop) isStmt()   {}
func (Call) isStmt()   {}
func (Work) isStmt()   {}
func (Branch) isStmt() {}

// Kind classifies functions for the census and the measurement filters.
type Kind int

// Function kinds mirroring Table 2's census rows.
const (
	KindMain   Kind = iota
	KindKernel      // computational kernel
	KindComm        // communication wrapper
	KindGetter      // C++-style accessor: no loops
	KindHelper      // constant or runtime-constant loops
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMain:
		return "main"
	case KindKernel:
		return "kernel"
	case KindComm:
		return "comm"
	case KindGetter:
		return "getter"
	case KindHelper:
		return "helper"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FuncSpec declares one application function.
type FuncSpec struct {
	Name string
	Kind Kind
	Body []Stmt
	// WorkNanos is the time of one abstract work unit in nanoseconds.
	WorkNanos float64
	// MemIntensity in [0,1] scales the hardware-contention sensitivity of
	// this function's compute time (C1).
	MemIntensity float64
	// HWFactor optionally multiplies the compute time by a
	// machine-dependent p-power (surface effects, NUMA): exponent over p.
	HWFactorPExp float64
	// ImbalanceSkew models rank load imbalance: the measured (critical
	// path) time of this function stretches by 1 + skew*log2(p) as ranks
	// straggle. Like contention it is a machine/scheduling effect — the
	// analytic Ground stays rank-symmetric and the taint analysis cannot
	// (and must not) derive a code-level p dependence from it.
	ImbalanceSkew float64
	// InlineEstimate marks functions the compiler-assisted Score-P default
	// filter judges inlineable and therefore skips (Section A3). Getters
	// qualify; notoriously, some performance-relevant kernels do too,
	// producing the false negatives the paper describes.
	InlineEstimate bool
}

// Spec is a whole application.
type Spec struct {
	Name string
	// Params are the marked input parameters in declaration order
	// (excluding the implicit MPI parameter p).
	Params []string
	// Funcs holds every function; Funcs[0] must be the main function.
	Funcs []*FuncSpec
	// MPIUsed lists the MPI routines the program calls (the census's MPI
	// column).
	MPIUsed []string
}

// FuncByName returns the spec of name, or nil.
func (s *Spec) FuncByName(name string) *FuncSpec {
	for _, f := range s.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Main returns the entry function spec.
func (s *Spec) Main() *FuncSpec { return s.Funcs[0] }

// CountFuncs tallies functions per kind.
func (s *Spec) CountFuncs() map[Kind]int {
	out := make(map[Kind]int)
	for _, f := range s.Funcs {
		out[f.Kind]++
	}
	return out
}

// Validate checks call targets and structural invariants, and rejects call
// cycles: the spec language has no construct that could end a recursion,
// and both ground-truth evaluation and the interpreter recurse along calls.
func (s *Spec) Validate() error {
	if len(s.Funcs) == 0 {
		return fmt.Errorf("apps: spec %q has no functions", s.Name)
	}
	if s.Funcs[0].Kind != KindMain {
		return fmt.Errorf("apps: spec %q: first function must be main", s.Name)
	}
	mpi := make(map[string]bool, len(s.MPIUsed))
	for _, m := range s.MPIUsed {
		mpi[m] = true
	}
	index := make(map[string]int, len(s.Funcs))
	for i, f := range s.Funcs {
		if _, dup := index[f.Name]; dup {
			return fmt.Errorf("apps: duplicate function %q", f.Name)
		}
		index[f.Name] = i
	}
	// edges[first[i]:first[i+1]] lists the spec functions Funcs[i] calls,
	// in body order.
	var edges []int
	first := make([]int, len(s.Funcs)+1)
	var checkBody func(fi int, body []Stmt) error
	checkBody = func(fi int, body []Stmt) error {
		for _, st := range body {
			switch v := st.(type) {
			case Loop:
				if err := checkBody(fi, v.Body); err != nil {
					return err
				}
			case Branch:
				if err := checkBody(fi, v.Then); err != nil {
					return err
				}
				if err := checkBody(fi, v.Else); err != nil {
					return err
				}
			case Call:
				if c, ok := index[v.Callee]; ok {
					edges = append(edges, c)
				} else if !mpi[v.Callee] {
					return fmt.Errorf("apps: %s calls unknown %q", s.Funcs[fi].Name, v.Callee)
				}
			}
		}
		return nil
	}
	for i, f := range s.Funcs {
		if err := checkBody(i, f.Body); err != nil {
			return err
		}
		first[i+1] = len(edges)
	}

	const (
		unseen = iota
		active
		done
	)
	state := make([]uint8, len(s.Funcs))
	var chain []int // the active call chain, outermost first
	var visit func(fi int) error
	visit = func(fi int) error {
		state[fi] = active
		chain = append(chain, fi)
		for _, c := range edges[first[fi]:first[fi+1]] {
			switch state[c] {
			case active:
				var cycle []string
				for _, f := range append(chain[slices.Index(chain, c):], c) {
					cycle = append(cycle, s.Funcs[f].Name)
				}
				return fmt.Errorf("apps: spec %q: call cycle %s", s.Name, strings.Join(cycle, " -> "))
			case unseen:
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		chain = chain[:len(chain)-1]
		state[fi] = done
		return nil
	}
	for i := range s.Funcs {
		if state[i] == unseen {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// HasParam reports whether name is a parameter a configuration of this
// spec may set: a declared parameter or the implicit MPI parameter p.
func (s *Spec) HasParam(name string) bool {
	return name == "p" || slices.Contains(s.Params, name)
}

// CheckConfig reports whether cfg is a configuration the pipeline can
// run: it names only parameters of the spec (a typo'd name must fail
// loudly, not return a plausible result that never varied anything),
// provides every declared one, and has p >= 1 — the pipeline truncates p
// to an integer rank count, so anything below 1 (fractions in (0,1)
// included) would otherwise fail mid-run as a misleading "missing p".
func (s *Spec) CheckConfig(cfg Config) error {
	unknown := ""
	for name := range cfg {
		if !s.HasParam(name) && (unknown == "" || name < unknown) {
			unknown = name
		}
	}
	if unknown != "" {
		return fmt.Errorf("unknown parameter %q (spec has %v plus the implicit p)", unknown, s.Params)
	}
	for _, prm := range s.Params {
		if _, ok := cfg[prm]; !ok {
			return fmt.Errorf("config missing spec parameter %q", prm)
		}
	}
	if cfg["p"] < 1 {
		return fmt.Errorf("config requires the implicit MPI parameter p >= 1")
	}
	return nil
}

// Config is a concrete parameter assignment including the implicit p.
type Config map[string]float64

// Clone copies the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}
