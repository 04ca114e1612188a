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

	for _, mode := range []Mode{ModeFast, ModeReference} {
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
// heap cell (a consecutive Load/Add/Store) and calls a helper each iteration
// (a call-bearing block). Fuel sweeps over this program abort on every
// memory access and on both sides of every call.
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

// buildSpinCounted creates main(n): a counted loop whose body carries nothing
// from one iteration to the next — a temporary derived from the induction
// register, work, a constant getter — which the fast engine executes through
// a loop summary: a few warm-up iterations, the rest but one in a single
// step when the remaining fuel covers them, the last one dispatched. Fuel
// sweeps over this program end inside the warm-up, at every instruction of
// the iterations a larger budget skips, in the last iteration and at the
// failing exit test. The temporary and the induction register are read after
// the loop.
func buildSpinCounted(m *ir.Module) {
	g := ir.NewFunc(m, "get", 0)
	g.Ret(g.Const(3))
	g.Finish()

	b := ir.NewFunc(m, "main", 1)
	var last, iv ir.Reg
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		last = b.Add(b.Mul(i, b.Call("get")), b.Param(0))
		b.Work(last)
		iv = i
	})
	b.Ret(b.Add(last, iv))
	b.Finish()
}

// summarizedAtFullFuel runs main(9) of mod on the fast engine at full fuel
// and returns how many instructions its loop summaries charged — what the run
// summarized beyond a run that dispatches every iteration — and how many the
// call summaries of that second run did.
func summarizedAtFullFuel(t *testing.T, mod *ir.Module, tainted bool) (loops, calls int64) {
	t.Helper()
	var summarized [2]int64
	for i := range summarized {
		mach := NewMachine(mod)
		mach.everyIteration = i == 1
		var labels []taint.Label
		if tainted {
			mach.Taint = taint.NewEngine()
			labels = []taint.Label{mach.Taint.Table.Base("n")}
		}
		res, err := mach.Run("main", []Value{9}, labels)
		if err != nil {
			t.Fatal(err)
		}
		summarized[i] = res.Summarized
	}
	return summarized[0] - summarized[1], summarized[1]
}

// TestFuelBoundarySweep runs four spin programs at EVERY fuel value from 1
// through full completion, untainted and tainted, and requires the two
// engines to agree exactly on the (error, partial instruction count, value,
// label) observables at each budget. The fast engine charges a summarized
// call or loop in one step only when the fuel covers all of it, so this
// sweep pins its abort behavior before, inside and after every summary
// against the reference oracle.
func TestFuelBoundarySweep(t *testing.T) {
	builders := []struct {
		name  string
		build func(*ir.Module)
		// loopSums is how many loops of the program carry a loop summary;
		// one that does must fire it at full fuel.
		loopSums int
	}{
		{"spin", buildSpin, 0},
		{"spinmem", buildSpinMem, 0},
		{"spinleaf", buildSpinLeaf, 0},
		{"spincounted", buildSpinCounted, 1},
	}
	type obs struct {
		ins    int64
		val    Value
		label  taint.Label
		isFuel bool
		// recs renders the loop and branch records of a tainted run.
		recs string
	}
	run := func(t *testing.T, mod *ir.Module, mode Mode, fuel int64, tainted bool) obs {
		t.Helper()
		mach := NewMachine(mod)
		mach.Mode = mode
		mach.Fuel = fuel
		var labels []taint.Label
		var eng *taint.Engine
		if tainted {
			eng = taint.NewEngine()
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
		o := obs{ins: res.Instructions, val: res.Value, label: res.Label, isFuel: err != nil}
		if tainted {
			o.recs = renderRecords(eng, mod.Funcs["main"])
		}
		return o
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
				if n := Predecode(mod).NumLoopSummaries(); n != bc.loopSums {
					t.Fatalf("%d loop summaries, want %d", n, bc.loopSums)
				}
				loops, calls := summarizedAtFullFuel(t, mod, tainted)
				if (loops > 0) != (bc.loopSums > 0) {
					t.Fatalf("loop summaries charged %d of %d instructions at full fuel", loops, total)
				}
				if (calls > 0) != (Predecode(mod).NumSummarized() > 0) {
					t.Fatalf("call summaries charged %d of %d instructions at full fuel", calls, total)
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
					if got := run(t, mod, ModeFast, fuel, tainted); got != ref {
						t.Fatalf("fast fuel %d: %+v, reference %+v", fuel, got, ref)
					}
				}
			})
		}
	}
}
