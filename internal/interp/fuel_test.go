package interp

import (
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/taint"
)

// buildSpin creates main(n): a counted loop of n iterations doing a little
// arithmetic, for deterministic instruction counts.
func buildSpin(m *ir.Module) {
	b := ir.NewFunc(m, "main", 1)
	acc := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(acc, b.Add(acc, i))
	})
	b.Ret(acc)
	b.Finish()
}

// TestFuelPartialCounts verifies that a fuel-exhausted run reports the
// instructions executed up to the abort alongside ErrFuel, in both engine
// modes, so overhead experiments can account truncated runs.
func TestFuelPartialCounts(t *testing.T) {
	mod := ir.NewModule("spin")
	buildSpin(mod)

	for _, mode := range []Mode{ModeFast, ModeReference, ModeCompiled} {
		mach := NewMachine(mod)
		mach.Mode = mode
		res, err := mach.Run("main", []Value{1000}, nil)
		if err != nil {
			t.Fatalf("mode %d: full run failed: %v", mode, err)
		}
		total := res.Instructions
		if total < 1000 {
			t.Fatalf("mode %d: implausible instruction count %d", mode, total)
		}

		mach = NewMachine(mod)
		mach.Mode = mode
		mach.Fuel = total / 2
		res, err = mach.Run("main", []Value{1000}, nil)
		if !errors.Is(err, ErrFuel) {
			t.Fatalf("mode %d: want ErrFuel, got %v", mode, err)
		}
		if res == nil {
			t.Fatalf("mode %d: want partial result alongside ErrFuel, got nil", mode)
		}
		// The aborted instruction consumed the last fuel unit before the
		// abort check, so the partial count is budget+1 in both engines.
		if want := total/2 + 1; res.Instructions != want {
			t.Errorf("mode %d: partial instructions = %d, want %d", mode, res.Instructions, want)
		}
		if res.Value != 0 {
			t.Errorf("mode %d: partial result value = %d, want 0", mode, res.Value)
		}
	}
}

// buildSpinMem creates main(n): a counted loop that accumulates through a
// heap cell (a consecutive Load/Add/Store the compiled tier fuses into a
// triple superinstruction) and calls a helper each iteration (a call-bearing
// block, so the block's cost splits across segments). Fuel sweeps over this
// program cross every fused pre-charge and call-segment boundary.
func buildSpinMem(m *ir.Module) {
	h := ir.NewFunc(m, "bump", 1)
	h.Ret(h.Add(h.Param(0), h.Const(1)))
	h.Finish()

	b := ir.NewFunc(m, "main", 1)
	cell := b.Alloc(b.Const(1))
	b.Store(cell, 0, b.Const(0))
	acc := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		v := b.Load(cell, 0)
		b.Store(cell, 0, b.Add(v, i))
		b.MovTo(acc, b.Add(acc, b.Call("bump", i)))
	})
	b.Ret(b.Add(b.Load(cell, 0), acc))
	b.Finish()
}

// buildSpinLeaf creates main(n): a counted loop that calls a constant
// getter, a wrapper of that getter and a void worker every iteration, the
// callees the fast engine replaces by call summaries. A summary is taken
// only when the remaining fuel covers the whole callee, so fuel sweeps over
// this program end before, inside (at each instruction of the getter, of the
// wrapper and of the getter inside the wrapper) and right after every
// summarized call.
func buildSpinLeaf(m *ir.Module) {
	g := ir.NewFunc(m, "get", 0)
	g.Work(g.Const(2))
	g.Ret(g.Const(3))
	g.Finish()

	w := ir.NewFunc(m, "wrap", 1)
	w.Ret(w.Mul(w.Call("get"), w.Const(2)))
	w.Finish()

	v := ir.NewFunc(m, "tick", 2)
	v.Work(v.Const(1))
	v.RetVoid()
	v.Finish()

	b := ir.NewFunc(m, "main", 1)
	acc := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(acc, b.Add(acc, b.Call("get")))
		b.MovTo(acc, b.Add(acc, b.Call("wrap", i)))
		b.MovTo(acc, b.Add(acc, b.Call("tick", i, acc)))
	})
	b.Ret(acc)
	b.Finish()
}

// TestFuelBoundarySweep runs three spin programs at EVERY fuel value from 1
// through full completion, untainted and tainted, and requires the three
// engines to agree exactly on the (error, partial instruction count, value,
// label) observables at each budget. The compiled engine pre-charges fuel
// per fused segment and de-optimizes to the interpreter when a segment
// cannot be afforded, so this sweep pins its abort behavior at every
// superinstruction boundary against the reference oracle.
func TestFuelBoundarySweep(t *testing.T) {
	builders := []struct {
		name  string
		build func(*ir.Module)
	}{
		{"spin", buildSpin},
		{"spinmem", buildSpinMem},
		{"spinleaf", buildSpinLeaf},
	}
	type obs struct {
		ins    int64
		val    Value
		label  taint.Label
		isFuel bool
	}
	run := func(t *testing.T, mod *ir.Module, mode Mode, fuel int64, tainted bool) obs {
		t.Helper()
		mach := NewMachine(mod)
		mach.Mode = mode
		mach.Fuel = fuel
		var labels []taint.Label
		if tainted {
			eng := taint.NewEngine()
			mach.Taint = eng
			labels = []taint.Label{eng.Table.Base("n")}
		}
		res, err := mach.Run("main", []Value{9}, labels)
		if err != nil && !errors.Is(err, ErrFuel) {
			t.Fatalf("mode %v fuel %d: unexpected error: %v", mode, fuel, err)
		}
		if res == nil {
			t.Fatalf("mode %v fuel %d: nil result", mode, fuel)
		}
		return obs{res.Instructions, res.Value, res.Label, err != nil}
	}
	for _, bc := range builders {
		for _, tainted := range []bool{false, true} {
			name := bc.name + "/untainted"
			if tainted {
				name = bc.name + "/tainted"
			}
			t.Run(name, func(t *testing.T) {
				mod := ir.NewModule(bc.name)
				bc.build(mod)
				total := run(t, mod, ModeFast, 1<<40, tainted).ins
				if total < 20 {
					t.Fatalf("implausibly short program: %d instructions", total)
				}
				for fuel := int64(1); fuel <= total+1; fuel++ {
					ref := run(t, mod, ModeReference, fuel, tainted)
					// A budget of exactly total completes: the abort fires
					// only when a charge would drive fuel negative.
					wantFuel := fuel < total
					if ref.isFuel != wantFuel {
						t.Fatalf("reference fuel %d (total %d): ErrFuel = %v, want %v", fuel, total, ref.isFuel, wantFuel)
					}
					if wantFuel && ref.ins != fuel+1 {
						t.Fatalf("reference fuel %d: partial count %d, want %d", fuel, ref.ins, fuel+1)
					}
					for _, mode := range []Mode{ModeFast, ModeCompiled} {
						if got := run(t, mod, mode, fuel, tainted); got != ref {
							t.Fatalf("%v fuel %d: %+v, reference %+v", mode, fuel, got, ref)
						}
					}
				}
			})
		}
	}
}
