package scev

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

func analyzeSingle(t *testing.T, build func(b *ir.Builder)) *FuncClass {
	t.Helper()
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 2)
	build(b)
	if b.CurBlock() != nil {
		b.RetVoid()
	}
	f := b.Finish()
	return AnalyzeFunc(f, nil)
}

func TestConstantLoopResolved(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		b.ForConst(0, 8, func(i ir.Reg) { b.Work(b.Const(1)) })
	})
	if fc.NumLoops != 1 || fc.ConstLoops != 1 {
		t.Fatalf("loops=%d const=%d, want 1/1", fc.NumLoops, fc.ConstLoops)
	}
	if !fc.AllConstant || !fc.Pruned {
		t.Fatal("constant-loop function must be statically pruned")
	}
	for _, tc := range fc.Loops {
		if !tc.Constant || tc.Count != 8 {
			t.Fatalf("trip = %+v, want constant 8", tc)
		}
	}
}

func TestConstantLoopWithStep(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		b.For(b.Const(0), b.Const(10), b.Const(3), func(i ir.Reg) { b.Work(b.Const(1)) })
	})
	for _, tc := range fc.Loops {
		if !tc.Constant || tc.Count != 4 { // ceil(10/3)
			t.Fatalf("trip = %+v, want constant 4", tc)
		}
	}
}

func TestParameterLoopNotConstant(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) { b.Work(b.Const(1)) })
	})
	if fc.AllConstant || fc.Pruned {
		t.Fatal("parameter-bounded loop must not be pruned")
	}
	for _, tc := range fc.Loops {
		if tc.Constant {
			t.Fatal("parameter-bounded loop classified constant")
		}
	}
}

func TestDerivedConstantBound(t *testing.T) {
	// Bound = 4*8 computed from constants must still be constant.
	fc := analyzeSingle(t, func(b *ir.Builder) {
		bound := b.Mul(b.Const(4), b.Const(8))
		b.For(b.Const(0), bound, b.Const(1), func(i ir.Reg) { b.Work(b.Const(1)) })
	})
	if !fc.AllConstant {
		t.Fatal("constant-derived bound not recognized")
	}
	for _, tc := range fc.Loops {
		if tc.Count != 32 {
			t.Fatalf("count = %d, want 32", tc.Count)
		}
	}
}

func TestLoadBoundNotConstant(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		cell := b.Alloc(b.Const(1))
		b.Store(cell, 0, b.Const(9))
		bound := b.Load(cell, 0)
		b.For(b.Const(0), bound, b.Const(1), func(i ir.Reg) { b.Work(b.Const(1)) })
	})
	// A load is opaque to the static analysis (that is the point of the
	// paper: statics over-approximate; the dynamic pass would resolve it).
	if fc.AllConstant {
		t.Fatal("memory-carried bound must defeat the static analysis")
	}
}

func TestNoLoopsPruned(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		b.Ret(b.Add(b.Param(0), b.Param(1)))
	})
	if fc.NumLoops != 0 || !fc.Pruned {
		t.Fatalf("loop-free function must be pruned: %+v", fc)
	}
}

func TestRelevantLibraryCallBlocksPruning(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "comm", 0)
	b.Call("MPI_Barrier")
	b.RetVoid()
	f := b.Finish()
	fc := AnalyzeFunc(f, func(name string) bool { return name == "MPI_Barrier" })
	if fc.Pruned {
		t.Fatal("function calling MPI must not be statically pruned")
	}
	if !fc.CallsRelevantLibrary {
		t.Fatal("CallsRelevantLibrary not set")
	}
}

func TestNestedMixedLoops(t *testing.T) {
	fc := analyzeSingle(t, func(b *ir.Builder) {
		b.ForConst(0, 4, func(i ir.Reg) {
			b.For(b.Const(0), b.Param(0), b.Const(1), func(j ir.Reg) {
				b.Work(b.Const(1))
			})
		})
	})
	if fc.NumLoops != 2 {
		t.Fatalf("loops = %d, want 2", fc.NumLoops)
	}
	if fc.ConstLoops != 1 {
		t.Fatalf("const loops = %d, want 1", fc.ConstLoops)
	}
	if fc.AllConstant {
		t.Fatal("mixed nest must not be all-constant")
	}
}

func TestAnalyzeModule(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "getter", 0)
	b.Ret(b.Const(3))
	b.Finish()
	b2 := ir.NewFunc(m, "kernel", 1)
	b2.For(b2.Const(0), b2.Param(0), b2.Const(1), func(i ir.Reg) { b2.Work(b2.Const(1)) })
	b2.RetVoid()
	b2.Finish()

	cls := AnalyzeForests(cfg.ModuleForests(m), nil)
	if !cls["getter"].Pruned {
		t.Fatal("getter should be pruned")
	}
	if cls["kernel"].Pruned {
		t.Fatal("kernel should not be pruned")
	}
}

// The scev classification must agree with the loop census from cfg.
func TestClassificationCoversAllLoops(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "f", 1)
	b.ForConst(0, 2, func(i ir.Reg) {
		b.ForConst(0, 3, func(j ir.Reg) { b.Work(b.Const(1)) })
	})
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) { b.Work(b.Const(1)) })
	b.RetVoid()
	f := b.Finish()

	fc := AnalyzeFunc(f, nil)
	forest := cfg.FindLoops(cfg.Build(f))
	if len(fc.Loops) != len(forest.Loops) {
		t.Fatalf("classified %d loops, forest has %d", len(fc.Loops), len(forest.Loops))
	}
}
