package apps

import "sort"

// Plan is the compiled form of a Spec that ground-truth evaluation runs
// on: the spec validated once, every name resolved to a dense index, and
// everything that depends on the spec alone computed ahead of the design
// points. A Plan is immutable after Compile — any number of goroutines may
// Evaluate it at once — and it describes the spec as it was when compiled;
// the spec must not change afterwards.
//
// Two index spaces address it. A target is something a Call can name: the
// spec functions in declaration order (target i is Spec.Funcs[i]) followed
// by the distinct MPI routines of Spec.MPIUsed in first-listing order. An
// edge is a (caller, callee) pair of the call graph: the edges of one
// caller are contiguous, in the order the callees first appear in its body
// (both arms of a Branch counted), and callers follow declaration order.
// The exported slices are shared with every user of the plan and must be
// treated as read-only.
type Plan struct {
	spec *Spec

	// Targets names every target, by target index.
	Targets []string
	// EdgeFrom and EdgeTo give the calling function and the called target
	// of every edge.
	EdgeFrom, EdgeTo []int32
	// ReachesMPI marks the functions whose call subtree, over every branch
	// arm, contains an MPI call.
	ReachesMPI []bool
	// MPIUsed is the target of each Spec.MPIUsed entry, as listed (a
	// routine listed twice appears twice).
	MPIUsed []int32

	index  map[string]int32 // target by name
	funcs  []planFunc       // by function index
	order  []int32          // every function, callers before callees
	params []string         // the parameters the bodies read
	quants []quant
}

// planFunc is one compiled function.
type planFunc struct {
	body      []planStmt
	workNanos float64
	hwPExp    float64
	edges     [2]int32 // its edges are EdgeFrom[edges[0]:edges[1]]
}

type stmtKind uint8

const (
	stmtWork stmtKind = iota
	stmtLoop
	stmtBranch
	stmtCall
)

// planStmt is one compiled body statement. The meaning of x, quant, param
// and edge depends on kind: Work carries its units in x; Loop its constant
// bound in x or its ParamBound quantity in quant, and its body; Branch its
// threshold in x, its parameter in param and its arms in body / alt; Call
// its edge and, for an MPI routine, the cost formula in comm and the count
// argument in quant.
type planStmt struct {
	kind  stmtKind
	comm  commKind
	x     float64
	quant int32 // index into Plan.quants, -1 when absent
	param int32
	edge  int32
	body  []planStmt
	alt   []planStmt
}

// quant is a Quantity over parameter indices. Its factors are multiplied
// in parameter-name order, so a product of three or more terms rounds the
// same way every time (Quantity.Eval ranges over a map).
type quant struct {
	coeff float64
	terms []quantTerm
}

type quantTerm struct {
	param int32
	pow   float64
}

// commKind selects the analytic cost formula of an MPI routine.
type commKind uint8

const (
	commNone commKind = iota
	commP2P
	commBarrier
	commBcast
	commAllreduce
	commGather
	commScatter
	commAlltoall
)

func commKindOf(routine string) commKind {
	switch routine {
	case "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv":
		return commP2P
	case "MPI_Barrier":
		return commBarrier
	case "MPI_Bcast":
		return commBcast
	case "MPI_Reduce", "MPI_Allreduce":
		return commAllreduce
	case "MPI_Gather", "MPI_Allgather":
		return commGather
	case "MPI_Scatter":
		return commScatter
	case "MPI_Alltoall":
		return commAlltoall
	default:
		return commNone
	}
}

// Compile validates s and builds its plan. The error is Validate's.
func Compile(s *Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nf := len(s.Funcs)
	pl := &Plan{
		spec:       s,
		Targets:    make([]string, 0, nf+len(s.MPIUsed)),
		ReachesMPI: make([]bool, nf),
		MPIUsed:    make([]int32, len(s.MPIUsed)),
		index:      make(map[string]int32, nf+len(s.MPIUsed)),
		funcs:      make([]planFunc, nf),
	}
	// A name that is both a spec function and a listed MPI routine is an
	// MPI routine wherever it is called, as it always was: the routines
	// are entered last and win the index.
	for i, f := range s.Funcs {
		pl.Targets = append(pl.Targets, f.Name)
		pl.index[f.Name] = int32(i)
	}
	for i, m := range s.MPIUsed {
		t, ok := pl.index[m]
		if !ok || int(t) < nf {
			t = int32(len(pl.Targets))
			pl.Targets = append(pl.Targets, m)
			pl.index[m] = t
		}
		pl.MPIUsed[i] = t
	}

	c := compiler{pl: pl, params: make(map[string]int32)}
	for i, f := range s.Funcs {
		c.fn, c.edgeOf = int32(i), make(map[int32]int32)
		lo := int32(len(pl.EdgeTo))
		body := c.body(f.Body)
		pl.funcs[i] = planFunc{
			body:      body,
			workNanos: f.WorkNanos,
			hwPExp:    f.HWFactorPExp,
			edges:     [2]int32{lo, int32(len(pl.EdgeTo))},
		}
	}

	// Callers before callees: reversed depth-first post-order. Validate
	// has shown the call graph acyclic.
	done := make([]bool, nf)
	var visit func(f int32)
	visit = func(f int32) {
		done[f] = true
		for _, t := range pl.calleesOf(int(f)) {
			if int(t) < nf && !done[t] {
				visit(t)
			}
		}
		pl.order = append(pl.order, f)
	}
	for f := range s.Funcs {
		if !done[f] {
			visit(int32(f))
		}
	}
	for i, j := 0, nf-1; i < j; i, j = i+1, j-1 {
		pl.order[i], pl.order[j] = pl.order[j], pl.order[i]
	}
	for i := nf - 1; i >= 0; i-- {
		f := pl.order[i]
		for _, t := range pl.calleesOf(int(f)) {
			if int(t) >= nf || pl.ReachesMPI[t] {
				pl.ReachesMPI[f] = true
				break
			}
		}
	}
	return pl, nil
}

// Index returns the target of a function or MPI-routine name, or -1.
func (pl *Plan) Index(name string) int {
	if t, ok := pl.index[name]; ok {
		return int(t)
	}
	return -1
}

// calleesOf lists the targets function f calls, in edge order.
func (pl *Plan) calleesOf(f int) []int32 {
	e := pl.funcs[f].edges
	return pl.EdgeTo[e[0]:e[1]]
}

// compiler carries the state of lowering one spec's bodies.
type compiler struct {
	pl     *Plan
	params map[string]int32
	fn     int32           // function being compiled
	edgeOf map[int32]int32 // its edges so far, by callee target
}

func (c *compiler) param(name string) int32 {
	i, ok := c.params[name]
	if !ok {
		i = int32(len(c.pl.params))
		c.pl.params = append(c.pl.params, name)
		c.params[name] = i
	}
	return i
}

func (c *compiler) quantity(q Quantity) int32 {
	names := make([]string, 0, len(q.Pow))
	for name := range q.Pow {
		names = append(names, name)
	}
	sort.Strings(names)
	cq := quant{coeff: q.Coeff, terms: make([]quantTerm, len(names))}
	for i, name := range names {
		cq.terms[i] = quantTerm{param: c.param(name), pow: float64(q.Pow[name])}
	}
	c.pl.quants = append(c.pl.quants, cq)
	return int32(len(c.pl.quants) - 1)
}

func (c *compiler) body(body []Stmt) []planStmt {
	if len(body) == 0 {
		return nil
	}
	out := make([]planStmt, 0, len(body))
	for _, st := range body {
		ps := planStmt{quant: -1}
		switch v := st.(type) {
		case Work:
			ps.kind, ps.x = stmtWork, v.Units
		case Loop:
			ps.kind, ps.x = stmtLoop, v.Bound.Coeff
			if v.Kind == ParamBound {
				ps.quant = c.quantity(v.Bound)
			}
			ps.body = c.body(v.Body)
		case Branch:
			ps.kind, ps.x, ps.param = stmtBranch, v.Less, c.param(v.Param)
			ps.body, ps.alt = c.body(v.Then), c.body(v.Else)
		case Call:
			t := c.pl.index[v.Callee] // Validate has resolved every callee
			e, ok := c.edgeOf[t]
			if !ok {
				e = int32(len(c.pl.EdgeTo))
				c.pl.EdgeFrom = append(c.pl.EdgeFrom, c.fn)
				c.pl.EdgeTo = append(c.pl.EdgeTo, t)
				c.edgeOf[t] = e
			}
			ps.kind, ps.edge = stmtCall, e
			if int(t) >= len(c.pl.spec.Funcs) {
				ps.comm = commKindOf(v.Callee)
				if v.CountArg != nil {
					ps.quant = c.quantity(*v.CountArg)
				}
			}
		default:
			continue // a nil statement: nothing to run
		}
		out = append(out, ps)
	}
	return out
}
