package interp_test

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

// This file holds the hand-built edge cases of the differential harness:
// modules the generator does not produce, run under both engines with the
// fingerprint of differential_test.go.

// TestModeStringParse pins the engine vocabulary: every Mode renders to
// the name test and benchmark rows are keyed by, and an unknown Mode
// renders its number.
func TestModeStringParse(t *testing.T) {
	for _, tc := range []struct {
		mode interp.Mode
		s    string
	}{
		{interp.ModeFast, "fast"},
		{interp.ModeReference, "reference"},
		{interp.Mode(2), "mode(2)"},
	} {
		if got := tc.mode.String(); got != tc.s {
			t.Errorf("Mode(%d).String() = %q, want %q", tc.mode, got, tc.s)
		}
	}
}

// TestDifferentialGlobalsAndWork covers what the generated modules miss:
// globals, Work instructions, While loops (unconditional-jump back edges),
// and the full binary-op table, each result written through a store and
// read back.
func TestDifferentialGlobalsAndWork(t *testing.T) {
	mod := ir.NewModule("gw")
	mod.AddGlobal("g", 4)
	b := ir.NewFunc(mod, "main", 1)
	ga := b.GlobalAddr("g")
	b.Store(ga, 0, b.Param(0))
	b.Work(b.Const(5))
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

	for _, arg := range []int64{0, 5, 7, 12} {
		for _, tainted := range []bool{false, true} {
			diffModes(t, mod, []int64{arg}, 0, tainted, "p0")
		}
	}
}

// TestDifferentialUnknownGlobal pins the error parity of the unknown-global
// path: both engines must fail with the same message and the same partial
// instruction count.
func TestDifferentialUnknownGlobal(t *testing.T) {
	mod := ir.NewModule("badglob")
	b := ir.NewFunc(mod, "main", 0)
	b.Ret(b.GlobalAddr("nope"))
	b.Finish()

	if ref := runOne(t, mod, nil, runOpts{mode: interp.ModeReference}); !strings.HasPrefix(ref, "err=") {
		t.Fatalf("reference run with unknown global succeeded:\n%s", ref)
	}
	diffModes(t, mod, nil, 0, false)
}

// buildInertHelperModule returns a module whose tainted main calls a helper
// with untainted constants only: the helper branches, switches, loops,
// stores, and calls a second leaf, so a tainted run fills records inside it
// that no label reaches.
func buildInertHelperModule() *ir.Module {
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
	r1 := b.Call("helper", b.Const(2), b.Const(4))
	r2 := b.Call("helper", b.Const(7), b.Const(3))
	r3 := b.Call("helper", b.Const(4), b.Const(5))
	b.Ret(b.Add(b.Mul(b.Param(0), r1), b.Add(r2, r3)))
	b.Finish()
	return mod
}

// TestDifferentialInertHelper runs the inert-helper module under both
// engines: the tainted run must agree on the records produced inside the
// helper (census parity) although no label reaches them.
func TestDifferentialInertHelper(t *testing.T) {
	mod := buildInertHelperModule()
	for _, arg := range []int64{0, 3, 9} {
		for _, tainted := range []bool{false, true} {
			diffModes(t, mod, []int64{arg}, 0, tainted, "p0")
		}
	}
}

// TestDifferentialInertHelperFuel sweeps every fuel value through the
// inert-helper module: each abort must land on the oracle's instruction with
// its partial count and records.
func TestDifferentialInertHelperFuel(t *testing.T) {
	mod := buildInertHelperModule()
	args := []int64{3}
	total := instructionsOf(t, mod, args)
	if total < 20 {
		t.Fatalf("implausibly short program: %d instructions", total)
	}
	for fuel := int64(1); fuel <= total+1; fuel++ {
		for _, tainted := range []bool{false, true} {
			diffModes(t, mod, args, fuel, tainted, "p0")
		}
	}
}
