package ir

import (
	"strings"
	"testing"
)

func buildCounted(t *testing.T, m *Module) *Function {
	t.Helper()
	b := NewFunc(m, "counted", 1)
	sum := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i Reg) {
		b.MovTo(sum, b.Add(sum, i))
	})
	b.Ret(sum)
	return b.Finish()
}

func TestBuilderCountedLoopShape(t *testing.T) {
	m := NewModule("t")
	f := buildCounted(t, m)
	if err := Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(f.Blocks) < 4 {
		t.Fatalf("expected at least 4 blocks for a loop, got %d", len(f.Blocks))
	}
	// Exactly one conditional branch (the loop exit).
	brs := 0
	for _, blk := range f.Blocks {
		if blk.Term().Op == OpBr {
			brs++
		}
	}
	if brs != 1 {
		t.Fatalf("counted loop should have exactly 1 conditional branch, got %d", brs)
	}
}

func TestBuilderIfJoins(t *testing.T) {
	m := NewModule("t")
	b := NewFunc(m, "sel", 2)
	out := b.Const(0)
	cond := b.CmpLT(b.Param(0), b.Param(1))
	b.If(cond, func() {
		b.MovTo(out, b.Const(1))
	}, func() {
		b.MovTo(out, b.Const(2))
	})
	b.Ret(out)
	f := b.Finish()
	if err := Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestBuilderIfWithoutElse(t *testing.T) {
	m := NewModule("t")
	b := NewFunc(m, "sel1", 1)
	out := b.Const(0)
	b.If(b.Param(0), func() { b.MovTo(out, b.Const(7)) }, nil)
	b.Ret(out)
	if err := Verify(b.Finish()); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsEmptyFunction(t *testing.T) {
	f := &Function{Name: "empty"}
	if err := Verify(f); err == nil {
		t.Fatal("expected error for function with no blocks")
	}
}

func TestVerifyRejectsMidBlockTerminator(t *testing.T) {
	f := &Function{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []*Block{{
			Index: 0,
			Name:  "entry",
			Instrs: []Instr{
				{Op: OpRet, A: NoReg, Dst: NoReg, B: NoReg},
				{Op: OpConst, Dst: 0, A: NoReg, B: NoReg},
			},
		}},
	}
	if err := Verify(f); err == nil {
		t.Fatal("expected error for terminator mid-block")
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	f := &Function{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []*Block{{
			Index:  0,
			Name:   "entry",
			Instrs: []Instr{{Op: OpConst, Dst: 0, A: NoReg, B: NoReg}},
		}},
	}
	if err := Verify(f); err == nil {
		t.Fatal("expected error for missing terminator")
	}
}

func TestVerifyRejectsRegisterOutOfRange(t *testing.T) {
	f := &Function{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []*Block{{
			Index: 0,
			Name:  "entry",
			Instrs: []Instr{
				{Op: OpMov, Dst: 5, A: 0, B: NoReg},
				{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg},
			},
		}},
	}
	if err := Verify(f); err == nil {
		t.Fatal("expected error for out-of-range register")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	f := &Function{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []*Block{{
			Index:  0,
			Name:   "entry",
			Instrs: []Instr{{Op: OpJmp, Dst: NoReg, A: NoReg, B: NoReg, Blk0: 9}},
		}},
	}
	if err := Verify(f); err == nil {
		t.Fatal("expected error for branch target out of range")
	}
}

func TestVerifyModuleResolvesCalls(t *testing.T) {
	m := NewModule("t")
	b := NewFunc(m, "leaf", 0)
	b.RetVoid()
	b.Finish()
	b2 := NewFunc(m, "root", 0)
	b2.Call("leaf")
	b2.Call("mpi_barrier")
	b2.RetVoid()
	b2.Finish()

	if err := VerifyModule(m, nil); err == nil {
		t.Fatal("expected unresolved callee error without extern resolver")
	}
	ok := func(name string) bool { return name == "mpi_barrier" }
	if err := VerifyModule(m, ok); err != nil {
		t.Fatalf("VerifyModule with extern: %v", err)
	}
}

func TestDuplicateFunctionPanics(t *testing.T) {
	m := NewModule("t")
	b := NewFunc(m, "f", 0)
	b.RetVoid()
	b.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate function")
		}
	}()
	b2 := NewFunc(m, "f", 0)
	b2.RetVoid()
	b2.Finish()
}

func TestGlobalDeclared(t *testing.T) {
	m := NewModule("t")
	m.AddGlobal("state", 16)
	if sz, ok := m.GlobalSize("state"); !ok || sz != 16 {
		t.Fatalf("GlobalSize = %d, %v; want 16, true", sz, ok)
	}
	if _, ok := m.GlobalSize("missing"); ok {
		t.Fatal("unexpected global 'missing'")
	}
}

func TestPrinterMentionsLoopStructure(t *testing.T) {
	m := NewModule("t")
	f := buildCounted(t, m)
	s := f.String()
	for _, want := range []string{"func counted", "br ", "jmp ", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

func TestFunctionAttrs(t *testing.T) {
	f := &Function{Name: "f"}
	if f.Attr("kind") != "" {
		t.Fatal("empty attr should be ''")
	}
	f.SetAttr("kind", "kernel")
	if f.Attr("kind") != "kernel" {
		t.Fatalf("Attr = %q, want kernel", f.Attr("kind"))
	}
}

func TestSwitchTerminator(t *testing.T) {
	m := NewModule("t")
	b := NewFunc(m, "sw", 1)
	one := b.NewBlock("one")
	two := b.NewBlock("two")
	def := b.NewBlock("def")
	b.Switch(b.Param(0), def, []SwitchCase{{Value: 1, Block: one.Index}, {Value: 2, Block: two.Index}})
	b.SetBlock(one)
	b.Ret(b.Const(10))
	b.SetBlock(two)
	b.Ret(b.Const(20))
	b.SetBlock(def)
	b.Ret(b.Const(0))
	f := b.Finish()

	succs := f.Blocks[0].Succs(nil)
	if len(succs) != 3 {
		t.Fatalf("switch successors = %v, want 3 entries", succs)
	}
}
