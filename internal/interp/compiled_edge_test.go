package interp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/taint"
)

// TestModeStringParse pins the engine vocabulary: every Mode renders to
// the name test and benchmark rows are keyed by, and an unknown Mode
// still renders to something.
func TestModeStringParse(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		s    string
	}{
		{ModeFast, "fast"},
		{ModeReference, "reference"},
		{ModeCompiled, "compiled"},
	} {
		if got := tc.mode.String(); got != tc.s {
			t.Errorf("Mode(%d).String() = %q, want %q", tc.mode, got, tc.s)
		}
	}
	if got := Mode(99).String(); got == "" {
		t.Error("unknown Mode renders empty")
	}
}

// engineSnap captures every cross-engine observable of one run.
type engineSnap struct {
	val   Value
	label taint.Label
	ins   int64
	err   string
	recs  string
}

// runEngine executes mod/main under one mode; tainted runs give every
// argument its own base label and snapshot the loop records.
func runEngine(t *testing.T, mod *ir.Module, mode Mode, args []Value, tainted bool, fuel int64) engineSnap {
	t.Helper()
	mach := NewMachine(mod)
	mach.Mode = mode
	mach.Fuel = fuel
	var eng *taint.Engine
	var labels []taint.Label
	if tainted {
		eng = taint.NewEngine()
		mach.Taint = eng
		for i := range args {
			labels = append(labels, eng.Table.Base(fmt.Sprintf("p%d", i)))
		}
	}
	res, err := mach.Run("main", args, labels)
	var s engineSnap
	if err != nil {
		s.err = err.Error()
	}
	if res != nil {
		s.val, s.label, s.ins = res.Value, res.Label, res.Instructions
	}
	if eng != nil {
		var sb strings.Builder
		for _, r := range eng.SortedLoops() {
			fmt.Fprintf(&sb, "loop %s#%d@%d %s l=%d it=%d en=%d;",
				r.Key.Func, r.Key.LoopID, r.Header, r.Key.CallPath, r.Labels, r.Iterations, r.Entries)
		}
		warns := make([]string, 0, len(eng.RecursionWarnings))
		for fn := range eng.RecursionWarnings {
			warns = append(warns, fn)
		}
		sort.Strings(warns)
		sb.WriteString(strings.Join(warns, ","))
		s.recs = sb.String()
	}
	return s
}

// diffEngines runs main under all three engines, tainted and untainted,
// and requires bit-identical observables.
func diffEngines(t *testing.T, mod *ir.Module, args []Value) {
	t.Helper()
	for _, tainted := range []bool{false, true} {
		ref := runEngine(t, mod, ModeReference, args, tainted, 0)
		for _, mode := range []Mode{ModeFast, ModeCompiled} {
			if got := runEngine(t, mod, mode, args, tainted, 0); got != ref {
				t.Errorf("%s tainted=%v %v: %+v, reference %+v", mod.Name, tainted, mode, got, ref)
			}
		}
	}
}

// TestCompiledGlobalsAndWork exercises the compiled lowerings the golden
// corpus misses: globals (emitGlobal), step-free Work instructions, While loops
// (plain unconditional-jump terminators), and the full binary-op table
// through fused load/op/store sequences.
func TestCompiledGlobalsAndWork(t *testing.T) {
	mod := ir.NewModule("gw")
	mod.AddGlobal("g", 4)
	b := ir.NewFunc(mod, "main", 1)
	ga := b.GlobalAddr("g")
	b.Store(ga, 0, b.Param(0))
	b.Work(b.Const(5))
	// Every comparison and divider through the arith2 table, written
	// through stores so the op+store and load+op+store fusions fire.
	b.Store(ga, 1, b.Add(b.Div(b.Param(0), b.Const(2)), b.Mod(b.Param(0), b.Const(3))))
	b.Store(ga, 2, b.Add(b.CmpLE(b.Param(0), b.Const(4)), b.CmpNE(b.Param(0), b.Const(5))))
	b.Store(ga, 3, b.Add(b.CmpGE(b.Param(0), b.Const(6)), b.CmpEQ(b.Param(0), b.Const(7))))
	b.While(func() ir.Reg {
		return b.CmpGT(b.Load(ga, 0), b.Const(0))
	}, func() {
		b.Store(ga, 0, b.Sub(b.Load(ga, 0), b.Const(1)))
		b.Work(b.Const(3))
	})
	b.Ret(b.Add(b.Load(ga, 1), b.Add(b.Load(ga, 2), b.Load(ga, 3))))
	b.Finish()

	for _, arg := range []Value{0, 5, 7, 12} {
		diffEngines(t, mod, []Value{arg})
	}
}

// TestCompiledUnknownGlobal pins the error parity of the unknown-global
// path: all three engines must fail with the same message and the same
// partial instruction count.
func TestCompiledUnknownGlobal(t *testing.T) {
	mod := ir.NewModule("badglob")
	b := ir.NewFunc(mod, "main", 0)
	b.Ret(b.GlobalAddr("nope"))
	b.Finish()

	ref := runEngine(t, mod, ModeReference, nil, false, 0)
	if ref.err == "" {
		t.Fatal("reference run with unknown global succeeded")
	}
	for _, mode := range []Mode{ModeFast, ModeCompiled} {
		if got := runEngine(t, mod, mode, nil, false, 0); got != ref {
			t.Errorf("%v: %+v, reference %+v", mode, got, ref)
		}
	}
}

// buildCleanModule returns a module whose tainted run drops into the
// compiled engine's clean variants: main receives the tainted parameter
// but calls a statically-inert helper with untainted constants. The
// helper branches, switches, loops, stores, and calls a second inert leaf,
// covering the clean-variant terminators and the clean module-call step.
func buildCleanModule() *ir.Module {
	mod := ir.NewModule("cleanvar")

	leaf := ir.NewFunc(mod, "leaf", 1)
	leaf.Ret(leaf.Mul(leaf.Param(0), leaf.Const(3)))
	leaf.Finish()

	h := ir.NewFunc(mod, "helper", 2)
	cell := h.Alloc(h.Const(1))
	acc := h.Const(0)
	h.If(h.CmpLT(h.Param(0), h.Param(1)), func() {
		h.MovTo(acc, h.Call("leaf", h.Param(0)))
	}, func() {
		h.MovTo(acc, h.Sub(h.Param(0), h.Param(1)))
	})
	one := h.NewBlock("one")
	two := h.NewBlock("two")
	def := h.NewBlock("def")
	join := h.NewBlock("join")
	h.Switch(h.Mod(h.Param(0), h.Const(3)), def, []ir.SwitchCase{
		{Value: 0, Block: one.Index}, {Value: 1, Block: two.Index},
	})
	h.SetBlock(one)
	h.MovTo(acc, h.Add(h.Param(1), acc))
	h.Jmp(join)
	h.SetBlock(two)
	h.MovTo(acc, h.Neg(acc))
	h.Jmp(join)
	h.SetBlock(def)
	h.MovTo(acc, h.Not(acc))
	h.Jmp(join)
	h.SetBlock(join)
	h.For(h.Const(0), h.Param(1), h.Const(1), func(i ir.Reg) {
		h.MovTo(acc, h.Add(acc, i))
	})
	h.Store(cell, 0, acc)
	h.Ret(acc)
	h.Finish()

	b := ir.NewFunc(mod, "main", 1)
	// The tainted parameter stays live in main; the helper arguments are
	// untainted constants, so the compiled engine enters helper's clean
	// variant while main runs the full taint variant.
	r1 := b.Call("helper", b.Const(2), b.Const(4))
	r2 := b.Call("helper", b.Const(7), b.Const(3))
	r3 := b.Call("helper", b.Const(4), b.Const(5))
	b.Ret(b.Add(b.Mul(b.Param(0), r1), b.Add(r2, r3)))
	b.Finish()
	return mod
}

// TestCompiledCleanVariants runs the clean-variant module under all three
// engines; the tainted run must agree on records produced inside the
// inert helper (census parity) while executing none of the label work.
func TestCompiledCleanVariants(t *testing.T) {
	mod := buildCleanModule()
	for _, arg := range []Value{0, 3, 9} {
		diffEngines(t, mod, []Value{arg})
	}
}

// TestCompiledCleanFuelBoundaries sweeps every fuel value through the
// clean-variant module: de-optimization out of a clean compiled block
// must reproduce the oracle's exact partial counts and records.
func TestCompiledCleanFuelBoundaries(t *testing.T) {
	mod := buildCleanModule()
	total := runEngine(t, mod, ModeFast, []Value{3}, true, 1<<40).ins
	if total < 20 {
		t.Fatalf("implausibly short program: %d instructions", total)
	}
	for fuel := int64(1); fuel <= total+1; fuel++ {
		for _, tainted := range []bool{false, true} {
			ref := runEngine(t, mod, ModeReference, []Value{3}, tainted, fuel)
			for _, mode := range []Mode{ModeFast, ModeCompiled} {
				if got := runEngine(t, mod, mode, []Value{3}, tainted, fuel); got != ref {
					t.Errorf("fuel %d tainted=%v %v: %+v, reference %+v", fuel, tainted, mode, got, ref)
				}
			}
		}
	}
}

// TestCompiledArtifactAccessors covers the artifact plumbing the service
// relies on: Compile is pure, the artifact exposes its source program,
// and a machine accepts a shared artifact.
func TestCompiledArtifactAccessors(t *testing.T) {
	mod := ir.NewModule("spin")
	buildSpin(mod)
	prog := Predecode(mod)
	cp := Compile(prog)
	if cp.Program() != prog {
		t.Error("Compiled.Program() does not return the source program")
	}
	if n := prog.NumFuncs(); n != 1 {
		t.Errorf("NumFuncs = %d, want 1", n)
	}
	mach := NewMachine(mod)
	mach.Mode = ModeCompiled
	mach.Prog = prog
	mach.Compiled = cp
	res, err := mach.Run("main", []Value{10}, nil)
	if err != nil {
		t.Fatalf("run with shared artifact: %v", err)
	}
	if res.Value != 45 {
		t.Errorf("shared-artifact run value = %d, want 45", res.Value)
	}
	if got, want := mach.Heap(), 0; len(got) != want {
		t.Errorf("heap after heap-free run has %d cells, want %d", len(got), want)
	}
	if _, err := mach.GlobalAddr("nope"); err == nil {
		t.Error("GlobalAddr of undeclared global succeeded")
	}
}
