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
// the same labels and with none (where any label at all is a leak). main
// opens with a loop the fast engine summarizes, and every budget that ends
// the run in that loop's last iteration — dispatched after the skip, the
// loop's exit scope open and its settled-label scratch live — is among the
// aborts.
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
	var last ir.Reg
	b.For(b.Const(0), b.Mul(b.Param(0), b.Const(2)), b.Const(1), func(i ir.Reg) {
		last = b.Add(b.Mul(i, b.Const(3)), b.Param(1))
		b.Work(last)
	})
	acc := b.Mov(last)
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.MovTo(acc, b.Add(acc, b.Call("sum", b.Param(0), i)))
	})
	b.Ret(acc)
	b.Finish()

	args := []int64{6, 4}
	var summarized int64 // of the last run
	run := func(mach *interp.Machine, fuel int64, labelled bool) (string, error) {
		eng := taint.NewEngine()
		mach.Taint = eng
		mach.Fuel = fuel
		var labels []taint.Label
		if labelled {
			labels = []taint.Label{eng.Table.Base("n"), eng.Table.Base("v")}
		}
		res, err := mach.Run("main", args, labels)
		summarized = res.Summarized
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
		// The first loop is over within 12 iterations of 10 instructions and
		// a short preamble: those budgets end before the skip, where it would
		// cross them, and after it.
		cuts := []int64{total / 3, total / 2, total - 5}
		for cut := int64(1); cut < 140; cut++ {
			cuts = append(cuts, cut)
		}
		afterSkip := 0
		for _, cut := range cuts {
			for i, labelled := range []bool{true, false} {
				if _, err := run(mach, cut, true); !errors.Is(err, interp.ErrFuel) {
					t.Fatalf("%v: fuel %d of %d: want ErrFuel, got %v", mode, cut, total, err)
				}
				if summarized > 0 && cut < 140 {
					afterSkip++
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
		if mode == interp.ModeFast && afterSkip < 20 {
			t.Fatalf("%d aborts landed after a loop summary fired, want the last iteration's worth", afterSkip)
		}
	}
}
