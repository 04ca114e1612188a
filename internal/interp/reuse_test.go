package interp_test

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/taint"
)

// TestReuseAfterAbortInsideScope aborts a tainted run on fuel while loop-exit
// and branch scopes are open — in main and in a callee — and runs the same
// machine again. The pooled frames still hold the aborted activations'
// control-taint state, so the next run must start from an empty scope stack
// and an empty summary: its observables have to equal a fresh machine's, with
// the same labels and with none (where any label at all is a leak).
func TestReuseAfterAbortInsideScope(t *testing.T) {
	mod := ir.NewModule("reuse")
	h := ir.NewFunc(mod, "sum", 2)
	hacc := h.Const(0)
	h.For(h.Const(0), h.Param(0), h.Const(1), func(i ir.Reg) {
		h.If(h.CmpLT(i, h.Param(1)), func() { h.MovTo(hacc, h.Add(hacc, i)) }, nil)
	})
	h.Ret(hacc)
	h.Finish()
	b := ir.NewFunc(mod, "main", 2)
	acc := b.Const(0)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(acc, b.Add(acc, b.Call("sum", b.Param(0), i)))
	})
	b.Ret(acc)
	b.Finish()

	args := []int64{6, 4}
	run := func(mach *interp.Machine, fuel int64, labelled bool) (string, error) {
		eng := taint.NewEngine()
		mach.Taint = eng
		mach.Fuel = fuel
		var labels []taint.Label
		if labelled {
			labels = []taint.Label{eng.Table.Base("n"), eng.Table.Base("v")}
		}
		res, err := mach.Run("main", args, labels)
		return fingerprint(res, err, eng), err
	}
	for _, mode := range []interp.Mode{interp.ModeFast, interp.ModeCompiled} {
		fresh := func() *interp.Machine {
			m := interp.NewMachine(mod)
			m.Mode = mode
			return m
		}
		var want [2]string
		for i, labelled := range []bool{true, false} {
			fp, err := run(fresh(), 0, labelled)
			if err != nil {
				t.Fatalf("%v: full run: %v", mode, err)
			}
			want[i] = fp
		}
		res, err := fresh().Run("main", args, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := res.Instructions
		mach := fresh()
		for _, cut := range []int64{total / 3, total / 2, total - 5} {
			for i, labelled := range []bool{true, false} {
				if _, err := run(mach, cut, true); !errors.Is(err, interp.ErrFuel) {
					t.Fatalf("%v: fuel %d of %d: want ErrFuel, got %v", mode, cut, total, err)
				}
				got, err := run(mach, 0, labelled)
				if err != nil {
					t.Fatalf("%v: rerun after abort at %d: %v", mode, cut, err)
				}
				if got != want[i] {
					t.Fatalf("%v: reused machine after abort at %d (labelled=%v) differs from a fresh one:\n--- fresh ---\n%s--- reused ---\n%s", mode, cut, labelled, want[i], got)
				}
			}
		}
	}
}
