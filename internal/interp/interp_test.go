package interp

import (
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/taint"
)

// sumTo builds func(n): sum_{i<n} i.
func sumTo(m *ir.Module) {
	b := ir.NewFunc(m, "sumTo", 1)
	sum := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(sum, b.Add(sum, i))
	})
	b.Ret(sum)
	b.Finish()
}

func TestRunArithmeticLoop(t *testing.T) {
	m := ir.NewModule("t")
	sumTo(m)
	mach := NewMachine(m)
	res, err := mach.Run("sumTo", []Value{10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 45 {
		t.Fatalf("sumTo(10) = %d, want 45", res.Value)
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions counted")
	}
}

func TestBinopSemantics(t *testing.T) {
	cases := []struct {
		op   ir.Opcode
		a, b Value
		want Value
	}{
		{ir.OpAdd, 3, 4, 7},
		{ir.OpSub, 3, 4, -1},
		{ir.OpMul, 3, 4, 12},
		{ir.OpDiv, 12, 4, 3},
		{ir.OpDiv, 12, 0, 0},
		{ir.OpMod, 13, 4, 1},
		{ir.OpMod, 13, 0, 0},
		{ir.OpAnd, 6, 3, 2},
		{ir.OpOr, 6, 3, 7},
		{ir.OpXor, 6, 3, 5},
		{ir.OpShl, 1, 4, 16},
		{ir.OpShr, 16, 4, 1},
		{ir.OpShl, 1, 70, 0},
		{ir.OpCmpEQ, 2, 2, 1},
		{ir.OpCmpNE, 2, 2, 0},
		{ir.OpCmpLT, 1, 2, 1},
		{ir.OpCmpLE, 2, 2, 1},
		{ir.OpCmpGT, 3, 2, 1},
		{ir.OpCmpGE, 1, 2, 0},
		{ir.OpMin, 4, 9, 4},
		{ir.OpMax, 4, 9, 9},
	}
	for _, tc := range cases {
		if got := binop(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMemoryAndGlobals(t *testing.T) {
	m := ir.NewModule("t")
	m.AddGlobal("g", 4)
	b := ir.NewFunc(m, "main", 1)
	addr := b.GlobalAddr("g")
	b.Store(addr, 2, b.Param(0))
	v := b.Load(addr, 2)
	b.Ret(v)
	b.Finish()

	mach := NewMachine(m)
	res, err := mach.Run("main", []Value{42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 42 {
		t.Fatalf("round trip through global = %d, want 42", res.Value)
	}
}

func TestAllocAndOutOfBounds(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "oob", 0)
	base := b.Alloc(b.Const(4))
	v := b.Load(base, 100)
	b.Ret(v)
	b.Finish()

	mach := NewMachine(m)
	if _, err := mach.Run("oob", nil, nil); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestFuelExhaustion(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "inf", 0)
	hdr := b.NewBlock("hdr")
	b.Jmp(hdr)
	b.SetBlock(hdr)
	b.Jmp(hdr)
	b.Finish()

	mach := NewMachine(m)
	mach.Fuel = 1000
	_, err := mach.Run("inf", nil, nil)
	if !errors.Is(err, ErrFuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

func TestCallsAndExterns(t *testing.T) {
	m := ir.NewModule("t")
	sumTo(m)
	b := ir.NewFunc(m, "main", 1)
	s := b.Call("sumTo", b.Param(0))
	e := b.Call("ext_double", s)
	b.Ret(e)
	b.Finish()

	mach := NewMachine(m)
	mach.Externs["ext_double"] = func(c *ExternCall) (Value, error) {
		return 2 * c.Args[0], nil
	}
	res, err := mach.Run("main", []Value{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 20 {
		t.Fatalf("main(5) = %d, want 20", res.Value)
	}
}

func TestUnresolvedCallError(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "main", 0)
	b.Call("nowhere")
	b.RetVoid()
	b.Finish()
	mach := NewMachine(m)
	if _, err := mach.Run("main", nil, nil); err == nil {
		t.Fatal("expected unresolved call error")
	}
}

// --- taint propagation ---

func taintedMachine(m *ir.Module) (*Machine, *taint.Engine) {
	e := taint.NewEngine()
	mach := NewMachine(m)
	mach.Taint = e
	return mach, e
}

func TestDataFlowTaintThroughArithmetic(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 2)
	d := b.Mul(b.Add(b.Param(0), b.Const(3)), b.Param(1))
	b.Ret(d)
	b.Finish()

	mach, e := taintedMachine(m)
	a := e.Table.Base("a")
	c := e.Table.Base("c")
	res, err := mach.Run("f", []Value{2, 5}, []taint.Label{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Label.Has(a) || !res.Label.Has(c) {
		t.Fatalf("return label %v must include a and c", e.Table.Expand(res.Label))
	}
}

func TestTaintThroughMemory(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 1)
	base := b.Alloc(b.Const(2))
	b.Store(base, 0, b.Param(0))
	v := b.Load(base, 0)
	b.Ret(v)
	b.Finish()

	mach, e := taintedMachine(m)
	p := e.Table.Base("p")
	res, err := mach.Run("f", []Value{7}, []taint.Label{p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Label.Has(p) {
		t.Fatal("taint lost through store/load")
	}
}

// The paper's foo example (Section 3.2): a flows via data flow, b via an
// executed control dependence, c via control flow even when the branch body
// is not taken for the concrete input.
func TestControlFlowTaintPaperExample(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "foo", 3)
	d := b.Mul(b.Const(2), b.Param(0))
	b.If(b.Param(1), func() {
		b.MovTo(d, b.Add(d, b.Const(1)))
	}, func() {
		b.MovTo(d, b.Sub(d, b.Const(1)))
	})
	b.If(b.Param(2), func() {
		b.MovTo(d, b.Mul(d, d))
	}, nil)
	b.Ret(d)
	b.Finish()

	mach, e := taintedMachine(m)
	la := e.Table.Base("a")
	lb := e.Table.Base("b")
	lc := e.Table.Base("c")

	// c = 0: the squaring branch is NOT taken; an implicit dependence on c
	// remains because d is rewritten under the (un)taken branch's scope only
	// when taken — our engine, like DFSan+DTA++, captures the explicit
	// control dependence of executed writes. With c=1 the write executes.
	res, err := mach.Run("foo", []Value{2, 1, 1}, []taint.Label{la, lb, lc})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Label
	for name, base := range map[string]taint.Label{"a": la, "b": lb, "c": lc} {
		if !got.Has(base) {
			t.Errorf("return label %v missing %s", e.Table.Expand(got), name)
		}
	}
}

func TestControlScopeClosesAtJoin(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 1)
	x := b.Const(0)
	b.If(b.Param(0), func() { b.MovTo(x, b.Const(1)) }, nil)
	// After the join, a fresh constant must NOT inherit the branch taint.
	y := b.Const(99)
	_ = x
	b.Ret(y)
	b.Finish()

	mach, e := taintedMachine(m)
	p := e.Table.Base("p")
	res, err := mach.Run("f", []Value{1}, []taint.Label{p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != taint.None {
		t.Fatalf("constant after join is tainted: %v", e.Table.Expand(res.Label))
	}
}

func TestControlTaintPropagatesIntoCallees(t *testing.T) {
	m := ir.NewModule("t")
	g := ir.NewFunc(m, "mk", 0)
	g.Ret(g.Const(5))
	g.Finish()

	b := ir.NewFunc(m, "f", 1)
	x := b.Const(0)
	b.If(b.Param(0), func() {
		b.MovTo(x, b.Call("mk"))
	}, nil)
	b.Ret(x)
	b.Finish()

	mach, e := taintedMachine(m)
	p := e.Table.Base("p")
	res, err := mach.Run("f", []Value{1}, []taint.Label{p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Label.Has(p) {
		t.Fatal("value produced by callee under tainted control must carry the control label")
	}
}

func TestLoopExitSinkRecordsDependencyAndIterations(t *testing.T) {
	m := ir.NewModule("t")
	sumTo(m)
	b := ir.NewFunc(m, "main", 1)
	b.Call("sumTo", b.Param(0))
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	n := e.Table.Base("n")
	if _, err := mach.Run("main", []Value{6}, []taint.Label{n}); err != nil {
		t.Fatal(err)
	}
	var rec *taint.LoopRecord
	for _, r := range e.SortedLoops() {
		if r.Key.Func == "sumTo" {
			rec = r
		}
	}
	if rec == nil {
		t.Fatal("no loop record for sumTo")
	}
	if !rec.Labels.Has(n) {
		t.Fatalf("loop labels %v missing n", e.Table.Expand(rec.Labels))
	}
	if rec.Iterations != 6 {
		t.Fatalf("iterations = %d, want 6", rec.Iterations)
	}
	if rec.Entries != 1 {
		t.Fatalf("entries = %d, want 1", rec.Entries)
	}
	if rec.Key.CallPath != "main/sumTo" {
		t.Fatalf("call path = %q", rec.Key.CallPath)
	}
}

func TestConstantLoopHasNoParameterDependence(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "fixed", 1)
	b.ForConst(0, 8, func(i ir.Reg) { b.Work(b.Const(1)) })
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	p := e.Table.Base("p")
	if _, err := mach.Run("fixed", []Value{3}, []taint.Label{p}); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.SortedLoops() {
		if r.Labels != taint.None {
			t.Fatalf("constant loop tainted: %v", e.Table.Expand(r.Labels))
		}
	}
}

func TestIndirectLoopBoundThroughMemoryAndCall(t *testing.T) {
	// iterate(pow(size,2)) pattern from Section 4.1: the bound flows through
	// a helper call and heap cell before reaching the loop condition.
	m := ir.NewModule("t")
	sq := ir.NewFunc(m, "square", 1)
	sq.Ret(sq.Mul(sq.Param(0), sq.Param(0)))
	sq.Finish()

	it := ir.NewFunc(m, "iterate", 1)
	it.For(it.Const(0), it.Param(0), it.Const(1), func(i ir.Reg) { it.Work(it.Const(1)) })
	it.RetVoid()
	it.Finish()

	b := ir.NewFunc(m, "main", 1)
	cell := b.Alloc(b.Const(1))
	b.Store(cell, 0, b.Call("square", b.Param(0)))
	b.Call("iterate", b.Load(cell, 0))
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	size := e.Table.Base("size")
	if _, err := mach.Run("main", []Value{3}, []taint.Label{size}); err != nil {
		t.Fatal(err)
	}
	deps := e.FuncLoopDeps()
	got := deps["iterate"]
	if len(got) != 1 || got[0] != "size" {
		t.Fatalf("iterate deps = %v, want [size]", got)
	}
	// Iterations must equal size^2 = 9.
	for _, r := range e.SortedLoops() {
		if r.Key.Func == "iterate" && r.Iterations != 9 {
			t.Fatalf("iterate iterations = %d, want 9", r.Iterations)
		}
	}
}

// LULESH regElemSize example (Section 5.2): a value accumulated inside a
// loop whose bound is tainted acquires the bound's label purely through
// control flow.
func TestControlDependenceThroughLoopBound(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "regcount", 1)
	count := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(count, b.Add(count, b.Const(1)))
	})
	b.Ret(count)
	b.Finish()

	mach, e := taintedMachine(m)
	size := e.Table.Base("size")
	res, err := mach.Run("regcount", []Value{4}, []taint.Label{size})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Label.Has(size) {
		t.Fatal("control dependence through loop bound not captured")
	}

	// Without control-flow propagation the dependency must be missed,
	// demonstrating why the DFSan extension is necessary.
	e2 := taint.NewEngine()
	e2.ControlFlow = false
	mach2 := NewMachine(m)
	mach2.Taint = e2
	size2 := e2.Table.Base("size")
	res2, err := mach2.Run("regcount", []Value{4}, []taint.Label{size2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Label != taint.None {
		t.Fatal("data-flow-only tainting unexpectedly captured control dependence")
	}
}

func TestRecursionWarning(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "rec", 1)
	cond := b.CmpGT(b.Param(0), b.Const(0))
	b.If(cond, func() {
		b.Call("rec", b.Sub(b.Param(0), b.Const(1)))
	}, nil)
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	if _, err := mach.Run("rec", []Value{3}, nil); err != nil {
		t.Fatal(err)
	}
	if !e.RecursionWarnings["rec"] {
		t.Fatal("recursion not flagged")
	}
}

func TestTaintedSelectionBranchCoverage(t *testing.T) {
	// if (p < 4) kernel_a else kernel_b — only one side executes, and the
	// condition is tainted: must appear in TaintedSelections (C2).
	m := ir.NewModule("t")
	ka := ir.NewFunc(m, "kernel_a", 0)
	ka.RetVoid()
	ka.Finish()
	kb := ir.NewFunc(m, "kernel_b", 0)
	kb.RetVoid()
	kb.Finish()
	b := ir.NewFunc(m, "main", 1)
	b.If(b.CmpLT(b.Param(0), b.Const(4)), func() { b.Call("kernel_a") }, func() { b.Call("kernel_b") })
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	p := e.Table.Base("p")
	if _, err := mach.Run("main", []Value{2}, []taint.Label{p}); err != nil {
		t.Fatal(err)
	}
	sel := e.TaintedSelections()
	if len(sel) != 1 {
		t.Fatalf("selections = %d, want 1", len(sel))
	}
	if sel[0].Key.Func != "main" {
		t.Fatalf("selection in %q, want main", sel[0].Key.Func)
	}
	if !sel[0].Labels.Has(p) {
		t.Fatal("selection label must include p")
	}
}

func TestSwitchDispatch(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "sw", 1)
	one := b.NewBlock("one")
	two := b.NewBlock("two")
	def := b.NewBlock("def")
	b.Switch(b.Param(0), def, []ir.SwitchCase{{Value: 1, Block: one.Index}, {Value: 2, Block: two.Index}})
	b.SetBlock(one)
	b.Ret(b.Const(10))
	b.SetBlock(two)
	b.Ret(b.Const(20))
	b.SetBlock(def)
	b.Ret(b.Const(0))
	b.Finish()

	mach := NewMachine(m)
	for in, want := range map[Value]Value{1: 10, 2: 20, 99: 0} {
		res, err := mach.Run("sw", []Value{in}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("sw(%d) = %d, want %d", in, res.Value, want)
		}
	}
}

func TestExternTaintSource(t *testing.T) {
	// An extern writing a labeled value to memory (MPI_Comm_size pattern).
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "main", 0)
	cell := b.Alloc(b.Const(1))
	b.Call("comm_size", cell)
	n := b.Load(cell, 0)
	b.For(b.Const(0), n, b.Const(1), func(i ir.Reg) { b.Work(b.Const(1)) })
	b.RetVoid()
	b.Finish()

	mach, e := taintedMachine(m)
	pl := e.Table.Base("p")
	mach.Externs["comm_size"] = func(c *ExternCall) (Value, error) {
		return 0, c.M.StoreMem(c.Args[0], 16, pl)
	}
	if _, err := mach.Run("main", nil, nil); err != nil {
		t.Fatal(err)
	}
	deps := e.FuncLoopDeps()
	if got := deps["main"]; len(got) != 1 || got[0] != "p" {
		t.Fatalf("main deps = %v, want [p]", got)
	}
}

// A reused machine running with argument labels but no taint engine must not
// leak labels from an earlier tainted run out of the pooled frames: without
// an engine no dispatch arm writes the label bank, so recycled slots have to
// read as None (labels move only through call-argument copies).
func TestReuseArgLabelsWithoutEngineReadsNone(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 1)
	// The returned register is not a parameter, so its label is never
	// written when no engine is attached.
	b.Ret(b.Add(b.Param(0), b.Const(1)))
	b.Finish()

	mach := NewMachine(m)
	e := taint.NewEngine()
	mach.Taint = e
	p := e.Table.Base("p")
	if _, err := mach.Run("f", []Value{3}, []taint.Label{p}); err != nil {
		t.Fatal(err)
	}

	mach.Taint = nil
	res, err := mach.Run("f", []Value{3}, []taint.Label{p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != taint.None {
		t.Fatalf("engine-less run leaked a stale label: %v", res.Label)
	}
}

// After an aborted run (ErrFuel), stale born entries must not survive in the
// capacity tail of a pooled frame's born bank: a later wider activation
// would otherwise mistake them for live births and drop loop-exit control
// labels for registers born inside the scope.
func TestAbortScrubsBornCapacityTail(t *testing.T) {
	m := ir.NewModule("t")
	// wide: enough registers that the depth-1 frame's born bank has a tail
	// beyond narrow's length; its accumulator is loop-carried under a
	// tainted bound, so its label must include the bound parameter.
	wb := ir.NewFunc(m, "wide", 1)
	pad := make([]ir.Reg, 24)
	for i := range pad {
		pad[i] = wb.Const(int64(i))
	}
	acc := wb.Mov(wb.Const(0))
	wb.For(wb.Const(0), wb.Param(0), wb.Const(1), func(i ir.Reg) {
		wb.MovTo(acc, wb.Add(acc, wb.Const(1)))
	})
	wb.Ret(acc)
	wb.Finish()
	nb := ir.NewFunc(m, "narrow", 1)
	nb.Ret(nb.Add(nb.Param(0), nb.Param(0)))
	nb.Finish()
	mb := ir.NewFunc(m, "main", 1)
	mb.Call("wide", mb.Param(0))
	mb.Call("narrow", mb.Param(0))
	mb.Ret(mb.Call("wide", mb.Param(0)))
	mb.Finish()

	mach := NewMachine(m)
	e := taint.NewEngine()
	mach.Taint = e
	n := e.Table.Base("n")

	// Run 1: abort mid-flight so frames keep whatever born state they had.
	mach.Fuel = 40
	if _, err := mach.Run("main", []Value{5}, []taint.Label{n}); err != ErrFuel {
		t.Fatalf("want ErrFuel, got %v", err)
	}

	// Run 2 on the same machine: full fuel; the loop-carried accumulator of
	// wide must carry the tainted bound through control flow.
	mach.Fuel = 0
	res, err := mach.Run("main", []Value{5}, []taint.Label{n})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Label.Has(n) {
		t.Fatal("stale born state dropped the loop-exit control label after an aborted run")
	}
}

// Partial argLabels on a reused machine must zero-fill the remaining
// parameter slots exactly like the reference engine's fresh label bank.
func TestReusePartialArgLabelsZeroFills(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "g", 2)
	b.Ret(b.Param(1))
	b.Finish()

	mach := NewMachine(m)
	e := taint.NewEngine()
	mach.Taint = e
	p := e.Table.Base("p")
	q := e.Table.Base("q")
	if _, err := mach.Run("g", []Value{1, 2}, []taint.Label{p, q}); err != nil {
		t.Fatal(err)
	}
	// Second run labels only the first parameter; the second must read as
	// untainted, not as run 1's leftover q.
	res, err := mach.Run("g", []Value{1, 2}, []taint.Label{p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != taint.None {
		t.Fatalf("partial argLabels leaked a stale label: %v", e.Table.Expand(res.Label))
	}
}
