package apps

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ir"
)

// paramGlobal names the module global cell holding parameter name.
func paramGlobal(name string) string { return "param_" + name }

// rtcGlobal names the runtime-constants global region.
const rtcGlobal = "rtconsts"

// BuildModule lowers the spec to an ir.Module. Marked parameters arrive as
// formals of main and are stored into module globals from which every
// function reads them (taint flows through shadow memory); the implicit
// parameter p is obtained through MPI_Comm_size into its own global, so the
// library database taints it. Runtime-constant loop bounds are stored by
// main into an opaque region that defeats the static analysis but carries
// no taint.
func BuildModule(s *Spec) (*ir.Module, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := ir.NewModule(s.Name)
	for _, p := range s.Params {
		m.AddGlobal(paramGlobal(p), 1)
	}
	m.AddGlobal(paramGlobal("p"), 1)

	// Collect runtime constants across all bodies; each gets one cell.
	rtc := collectRuntimeConsts(s)
	if len(rtc) > 0 {
		m.AddGlobal(rtcGlobal, int64(len(rtc)))
	}
	rtcIndex := make(map[float64]int64, len(rtc))
	for i, v := range rtc {
		rtcIndex[v] = int64(i)
	}

	g := &generator{spec: s, mod: m, rtcIndex: rtcIndex, funcs: make(map[string]bool, len(s.Funcs))}
	for _, f := range s.Funcs {
		g.funcs[f.Name] = true
	}

	// Non-main functions first (bodies may call each other in any order;
	// calls are by name so emission order is irrelevant).
	for _, f := range s.Funcs[1:] {
		if err := g.emitFunc(f, nil); err != nil {
			return nil, err
		}
	}
	if err := g.emitFunc(s.Main(), func(b *ir.Builder) {
		// Prologue: store marked parameters, obtain p, seed runtime consts.
		for i, p := range s.Params {
			addr := b.GlobalAddr(paramGlobal(p))
			b.Store(addr, 0, b.Param(i))
		}
		comm := b.Const(0)
		pAddr := b.GlobalAddr(paramGlobal("p"))
		b.Call("MPI_Comm_size", comm, pAddr)
		if len(rtc) > 0 {
			base := b.GlobalAddr(rtcGlobal)
			for _, v := range rtc {
				b.Store(base, rtcIndex[v], b.Const(int64(math.Round(v))))
			}
		}
	}); err != nil {
		return nil, err
	}
	return m, nil
}

func collectRuntimeConsts(s *Spec) []float64 {
	set := make(map[float64]bool)
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			if l, ok := st.(Loop); ok {
				if l.Kind == RuntimeConst {
					set[l.Bound.Coeff] = true
				}
				walk(l.Body)
			}
		}
	}
	for _, f := range s.Funcs {
		walk(f.Body)
	}
	out := make([]float64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

type generator struct {
	spec     *Spec
	mod      *ir.Module
	rtcIndex map[float64]int64
	funcs    map[string]bool // names of the spec's functions
}

func (g *generator) emitFunc(f *FuncSpec, prologue func(b *ir.Builder)) error {
	numParams := 0
	if f.Kind == KindMain {
		numParams = len(g.spec.Params)
	}
	b := ir.NewFunc(g.mod, f.Name, numParams)
	if prologue != nil {
		prologue(b)
	}
	if err := g.emitBody(b, f.Body); err != nil {
		return fmt.Errorf("apps: emit %s: %w", f.Name, err)
	}
	if f.Kind == KindGetter {
		// Getters return a value like a C++ accessor.
		if b.CurBlock() != nil {
			b.Ret(b.Const(1))
		}
	}
	fn := b.Finish()
	fn.SetAttr("kind", f.Kind.String())
	return nil
}

// paramReg loads parameter name from its global cell.
func (g *generator) paramReg(b *ir.Builder, name string) ir.Reg {
	addr := b.GlobalAddr(paramGlobal(name))
	return b.Load(addr, 0)
}

// emitQuantity lowers a Quantity to integer arithmetic: round(coeff) *
// prod(params^pow), with negative powers dividing. A non-positive rounded
// coefficient becomes 1 so bounds stay executable. All multiplications are
// applied before any division so a bound like size^3/regions accumulates
// the full numerator first — dividing first would floor 1/regions to 0 and
// the loop would dynamically execute 0 iterations.
func (g *generator) emitQuantity(b *ir.Builder, q Quantity) ir.Reg {
	c := int64(math.Round(q.Coeff))
	if c < 1 {
		c = 1
	}
	acc := b.Const(c)
	names := make([]string, 0, len(q.Pow))
	for n := range q.Pow {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if pow := q.Pow[n]; pow > 0 {
			p := g.paramReg(b, n)
			for k := 0; k < pow; k++ {
				acc = b.Mul(acc, p)
			}
		}
	}
	for _, n := range names {
		if pow := q.Pow[n]; pow < 0 {
			p := g.paramReg(b, n)
			for k := 0; k > pow; k-- {
				acc = b.Div(acc, p)
			}
		}
	}
	return acc
}

func (g *generator) emitBody(b *ir.Builder, body []Stmt) error {
	for _, st := range body {
		switch v := st.(type) {
		case Work:
			u := int64(math.Round(v.Units))
			if u < 1 {
				u = 1
			}
			b.Work(b.Const(u))
		case Loop:
			var bound ir.Reg
			switch v.Kind {
			case StaticConst:
				bound = b.Const(int64(math.Round(v.Bound.Coeff)))
			case RuntimeConst:
				base := b.GlobalAddr(rtcGlobal)
				bound = b.Load(base, g.rtcIndex[v.Bound.Coeff])
			case ParamBound:
				bound = g.emitQuantity(b, v.Bound)
			default:
				return fmt.Errorf("unknown bound kind %d", v.Kind)
			}
			var innerErr error
			b.For(b.Const(0), bound, b.Const(1), func(i ir.Reg) {
				innerErr = g.emitBody(b, v.Body)
			})
			if innerErr != nil {
				return innerErr
			}
		case Branch:
			p := g.paramReg(b, v.Param)
			cond := b.CmpLT(p, b.Const(int64(math.Round(v.Less))))
			var thenErr, elseErr error
			var elseFn func()
			if len(v.Else) > 0 {
				elseFn = func() { elseErr = g.emitBody(b, v.Else) }
			}
			b.If(cond, func() { thenErr = g.emitBody(b, v.Then) }, elseFn)
			if thenErr != nil {
				return thenErr
			}
			if elseErr != nil {
				return elseErr
			}
		case Call:
			if err := g.emitCall(b, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown stmt %T", st)
		}
	}
	return nil
}

func (g *generator) emitCall(b *ir.Builder, c Call) error {
	if g.funcs[c.Callee] {
		b.Call(c.Callee)
		return nil
	}
	// MPI routine: synthesize the argument list per convention.
	var count ir.Reg
	if c.CountArg != nil {
		count = g.emitQuantity(b, *c.CountArg)
	} else {
		count = b.Const(1)
	}
	switch c.Callee {
	case "MPI_Comm_size", "MPI_Comm_rank":
		cell := b.Alloc(b.Const(1))
		b.Call(c.Callee, b.Const(0), cell)
	case "MPI_Allreduce", "MPI_Reduce":
		send := b.Alloc(count)
		recv := b.Alloc(count)
		b.Store(send, 0, b.Const(1))
		b.Call(c.Callee, send, recv, count)
	case "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Bcast",
		"MPI_Gather", "MPI_Allgather", "MPI_Scatter", "MPI_Alltoall":
		buf := b.Alloc(count)
		b.Call(c.Callee, buf, count)
	case "MPI_Barrier", "MPI_Wait", "MPI_Waitall":
		b.Call(c.Callee)
	default:
		return fmt.Errorf("unsupported MPI routine %q", c.Callee)
	}
	return nil
}

// TaintArgs assembles the main() argument vector for a configuration in
// spec parameter order.
func TaintArgs(s *Spec, cfg Config) []int64 {
	out := make([]int64, len(s.Params))
	for i, p := range s.Params {
		out[i] = int64(math.Round(cfg[p]))
	}
	return out
}
