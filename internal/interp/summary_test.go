package interp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/taint"
)

// buildSummaryZoo adds one function per case of the summary analysis to m
// and returns, per function name, the summary predecode must derive: n == 0
// means the function must keep running as an activation.
func buildSummaryZoo(m *ir.Module) map[string]summary {
	want := make(map[string]summary)
	fn := func(name string, params int, s summary, body func(b *ir.Builder)) {
		b := ir.NewFunc(m, name, params)
		body(b)
		b.Finish()
		want[name] = s
	}

	fn("getter", 0, summary{n: 4, val: 3}, func(b *ir.Builder) {
		b.Work(b.Const(2))
		b.Ret(b.Const(3))
	})
	fn("void", 2, summary{n: 3}, func(b *ir.Builder) {
		b.Work(b.Const(1))
		b.RetVoid()
	})
	// Wrappers fold too; their cost is their own plus their callees'.
	fn("wrapper", 1, summary{n: 4 + 4, val: 6}, func(b *ir.Builder) {
		b.Ret(b.Mul(b.Call("getter"), b.Const(2)))
	})
	fn("wrapper2", 0, summary{n: 5 + 8 + 3, val: 6 - 0}, func(b *ir.Builder) {
		one := b.Const(1)
		b.Ret(b.Sub(b.Call("wrapper", one), b.Call("void", one, one)))
	})
	fn("deadparam", 2, summary{n: 4, val: 9}, func(b *ir.Builder) {
		b.MovTo(b.Param(1), b.Add(b.Param(0), b.Param(1)))
		b.Ret(b.Const(9))
	})
	// A parameter register overwritten by a constant is a constant.
	fn("clobber", 1, summary{n: 3, val: 4}, func(b *ir.Builder) {
		b.MovTo(b.Param(0), b.Const(4))
		b.Ret(b.Param(0))
	})
	fn("unwritten", 0, summary{n: 3, val: -5}, func(b *ir.Builder) {
		b.Ret(b.Sub(b.NewReg(), b.Const(5)))
	})
	fn("divzero", 0, summary{n: 7, val: 0}, func(b *ir.Builder) {
		zero := b.Const(0)
		b.Ret(b.Add(b.Div(b.Const(7), zero), b.Mod(b.Const(7), zero)))
	})
	fn("folds", 0, summary{n: 9, val: 1}, func(b *ir.Builder) {
		x := b.Bin(ir.OpShl, b.Const(3), b.Const(70)) // out-of-range shift: 0
		y := b.Bin(ir.OpMin, b.Neg(b.Const(4)), x)    // -4
		b.Ret(b.Not(b.Bin(ir.OpCmpGE, y, x)))         // !(−4 >= 0)
	})

	fn("identity", 1, summary{}, func(b *ir.Builder) { b.Ret(b.Param(0)) })
	fn("paramsum", 1, summary{}, func(b *ir.Builder) { b.Ret(b.Add(b.Param(0), b.Const(1))) })
	fn("movparam", 1, summary{}, func(b *ir.Builder) { b.Ret(b.Mov(b.Param(0))) })
	fn("wrapsparam", 1, summary{}, func(b *ir.Builder) { b.Ret(b.Call("identity", b.Param(0))) })
	fn("loads", 0, summary{}, func(b *ir.Builder) {
		cell := b.Alloc(b.Const(1))
		b.Store(cell, 0, b.Const(1))
		b.Ret(b.Load(cell, 0))
	})
	m.AddGlobal("cell", 1)
	fn("global", 0, summary{}, func(b *ir.Builder) {
		b.GlobalAddr("cell")
		b.Ret(b.Const(1))
	})
	fn("extern", 0, summary{}, func(b *ir.Builder) {
		b.Call("MPI_Barrier", b.Const(0))
		b.Ret(b.Const(1))
	})
	fn("branches", 0, summary{}, func(b *ir.Builder) {
		b.If(b.Const(1), func() { b.Work(b.Const(1)) }, nil)
		b.Ret(b.Const(1))
	})
	// The callee is summarized, the site's arity is wrong: the call must
	// reach the general path and its error.
	fn("badarity", 0, summary{}, func(b *ir.Builder) { b.Ret(b.Call("getter", b.Const(1))) })
	// Call cycles, and whatever reaches one, never get a summary.
	fn("self", 0, summary{}, func(b *ir.Builder) { b.Ret(b.Call("self")) })
	fn("ping", 0, summary{}, func(b *ir.Builder) { b.Ret(b.Call("pong")) })
	fn("pong", 0, summary{}, func(b *ir.Builder) {
		b.Call("ping")
		b.Ret(b.Const(1))
	})
	fn("callsping", 0, summary{}, func(b *ir.Builder) {
		b.Call("ping")
		b.Ret(b.Const(1))
	})

	// A tower of wrappers that each call the one below twice doubles the
	// instruction count per level; the cap stops the tower.
	fn("tower0", 0, summary{n: 2, val: 1}, func(b *ir.Builder) { b.Ret(b.Const(1)) })
	n := int64(2)
	for lvl := 1; lvl <= 42; lvl++ {
		below := fmt.Sprintf("tower%d", lvl-1)
		s := summary{}
		if n > 0 {
			if n = 2*n + 3; n <= maxSummaryN {
				s = summary{n: n, val: 1}
			} else {
				n = 0
			}
		}
		fn(fmt.Sprintf("tower%d", lvl), 0, s, func(b *ir.Builder) {
			b.Call(below)
			b.Ret(b.Call(below))
		})
	}
	return want
}

// TestDifferentialSummaryAnalysis checks the predecode-time summary pass
// function by function — summarized or not, instruction count, constant —
// and then holds every summary against the oracle: the reference
// interpreter, running the function as an entry point, must charge exactly
// n instructions and return exactly the constant, with an empty label even
// when every argument is tainted.
func TestDifferentialSummaryAnalysis(t *testing.T) {
	mod := ir.NewModule("zoo")
	want := buildSummaryZoo(mod)
	if err := ir.VerifyModule(mod, func(name string) bool { return name == "MPI_Barrier" }); err != nil {
		t.Fatal(err)
	}
	prog := Predecode(mod)
	summarized := 0
	for i, fn := range mod.FuncList {
		got := prog.sums[i]
		if got != want[fn.Name] {
			t.Errorf("%s: summary %+v, want %+v", fn.Name, got, want[fn.Name])
		}
		if got.n == 0 {
			continue
		}
		summarized++
		if got.n > 1_000_000 {
			continue // the upper tower levels: too long to run under the oracle
		}
		eng := taint.NewEngine()
		mach := NewMachine(mod)
		mach.Mode = ModeReference
		mach.Taint = eng
		args := make([]Value, fn.NumParams)
		labels := make([]taint.Label, fn.NumParams)
		for p := range args {
			args[p] = Value(5 + p)
			labels[p] = eng.Table.Base(fmt.Sprintf("a%d", p))
		}
		res, err := mach.Run(fn.Name, args, labels)
		if err != nil {
			t.Fatalf("%s: oracle run: %v", fn.Name, err)
		}
		if res.Instructions != got.n || res.Value != got.val || res.Label != taint.None {
			t.Errorf("%s: oracle charges %d instructions and returns %d (label %x), summary %+v",
				fn.Name, res.Instructions, res.Value, uint64(res.Label), got)
		}
	}
	if got := prog.NumSummarized(); got != summarized || got == 0 {
		t.Errorf("NumSummarized = %d, counted %d", got, summarized)
	}

	// A summary sits on a call site only when the site's arity matches.
	for _, df := range prog.funcs {
		for _, site := range df.calls {
			if site.callee < 0 {
				continue
			}
			s := prog.sums[site.callee]
			if len(site.args) != int(site.numParams) {
				s = summary{}
			}
			if site.sumN != s.n || site.sumVal != s.val {
				t.Errorf("%s: site %s carries (%d, %d), callee summary %+v", df.name, site.sym, site.sumN, site.sumVal, s)
			}
		}
	}

	// The arity error and the recursion warning survive summaries, in
	// every engine.
	for _, mode := range []Mode{ModeReference, ModeFast} {
		mach := NewMachine(mod)
		mach.Mode = mode
		if _, err := mach.Run("badarity", nil, nil); err == nil || err.Error() != "interp: call getter with 1 args, wants 0" {
			t.Errorf("%v: badarity: %v", mode, err)
		}
		eng := taint.NewEngine()
		mach = NewMachine(mod)
		mach.Mode = mode
		mach.Taint = eng
		mach.Fuel = 1000
		if _, err := mach.Run("callsping", nil, nil); !errors.Is(err, ErrFuel) || !eng.RecursionWarnings["ping"] {
			t.Errorf("%v: callsping: err %v, warnings %v", mode, err, eng.RecursionWarnings)
		}
	}
}
