package interp_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
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
	fresh := func() *interp.Machine { return interp.NewMachine(mod) }
	var want [2]string
	for i, labelled := range []bool{true, false} {
		fp, err := run(fresh(), 0, labelled)
		if err != nil {
			t.Fatalf("full run: %v", err)
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
				t.Fatalf("fuel %d of %d: want ErrFuel, got %v", cut, total, err)
			}
			if summarized > 0 && cut < 140 {
				afterSkip++
			}
			got, err := run(mach, 0, labelled)
			if err != nil {
				t.Fatalf("rerun after abort at %d: %v", cut, err)
			}
			if got != want[i] {
				t.Fatalf("reused machine after abort at %d (labelled=%v) differs from a fresh one:\n--- fresh ---\n%s--- reused ---\n%s", cut, labelled, want[i], got)
			}
		}
	}
	if afterSkip < 20 {
		t.Fatalf("%d aborts landed after a loop summary fired, want the last iteration's worth", afterSkip)
	}
}

// fillPeekModule is the module of the recycling tests, two entries and a
// global: fill(n, v) allocates n cells and stores v in each; peek(n, v)
// allocates n cells, stores v in the last one and returns the one before it,
// which it never wrote.
func fillPeekModule() *ir.Module {
	mod := ir.NewModule("fillpeek")
	mod.AddGlobal("g", 2)
	f := ir.NewFunc(mod, "fill", 2)
	fa := f.Alloc(f.Param(0))
	f.For(f.Const(0), f.Param(0), f.Const(1), func(i ir.Reg) {
		f.Store(f.Add(fa, i), 0, f.Param(1))
	})
	f.Ret(f.Load(fa, 0))
	f.Finish()
	p := ir.NewFunc(mod, "peek", 2)
	pa := p.Alloc(p.Param(0))
	p.Store(p.Add(pa, p.Sub(p.Param(0), p.Const(1))), 0, p.Param(1))
	p.Ret(p.Load(p.Add(pa, p.Sub(p.Param(0), p.Const(2))), 0))
	p.Finish()
	return mod
}

// TestReuseStaleArena runs a large run, a small one and a large one again on
// recycled memory — one machine, and fresh machines sharing one Program, whose
// arena pool hands the memory on — and requires of every run what a fresh
// machine on a fresh Program gives. The cell peek returns was never written:
// 0, labelled by its address (n) alone. An arena whose dirty extent followed
// the small run would hand peek the 7 (and the label) the first fill left
// there. Large, small, large is the order of any sweep,
// and the bundled apps initialise what they read, so nothing else notices.
// One of the orders aborts its large fill on fuel, half-way through the
// stores.
func TestReuseStaleArena(t *testing.T) {
	mod := fillPeekModule()

	type step struct {
		entry string
		n     int64
		abort bool // stop on fuel half-way
	}
	orders := [][]step{
		{{"fill", 1000, false}, {"fill", 10, false}, {"peek", 1000, false}},
		{{"fill", 10, false}, {"fill", 1000, false}, {"peek", 10, false}, {"peek", 1000, false}},
		{{"fill", 1000, true}, {"fill", 10, false}, {"peek", 1000, false}, {"fill", 1000, false}},
	}
	run := func(mach *interp.Machine, s step, tainted bool) string {
		var eng *taint.Engine
		labels := []taint.Label{taint.None, taint.None}
		if tainted {
			eng = taint.NewEngine()
			labels[0], labels[1] = eng.Table.Base("n"), eng.Table.Base("v")
		} else {
			tab := taint.NewTable()
			labels[0], labels[1] = tab.Base("n"), tab.Base("v")
		}
		mach.Taint = eng
		mach.Fuel = 0
		if s.abort {
			mach.Fuel = 3 * s.n
		}
		res, err := mach.Run(s.entry, []int64{s.n, 7}, labels)
		if s.abort != errors.Is(err, interp.ErrFuel) || (err != nil && !s.abort) {
			t.Fatalf("%s(%d): abort %v, got %v", s.entry, s.n, s.abort, err)
		}
		return fingerprint(res, err, eng)
	}
	for _, mode := range []interp.Mode{interp.ModeFast, interp.ModeReference} {
		for _, tainted := range []bool{true, false} {
			for oi, order := range orders {
				for _, oneMachine := range []bool{true, false} {
					prog := interp.Predecode(mod)
					machine := func(p *interp.Program) *interp.Machine {
						m := interp.NewMachine(mod)
						m.Mode, m.Prog = mode, p
						return m
					}
					mach := machine(prog)
					for si, s := range order {
						if !oneMachine {
							mach = machine(prog)
						}
						got := run(mach, s, tainted)
						want := run(machine(interp.Predecode(mod)), s, tainted)
						if got != want {
							t.Fatalf("%v tainted=%v order %d step %d %s(%d) oneMachine=%v: recycled memory shows through\n--- fresh ---\n%s--- recycled ---\n%s",
								mode, tainted, oi, si, s.entry, s.n, oneMachine, want, got)
						}
					}
				}
			}
		}
	}
	// The wanted answer itself, once: the cell was never written, so v is not
	// in it.
	eng := taint.NewEngine()
	mach := interp.NewMachine(mod)
	mach.Taint = eng
	n := eng.Table.Base("n")
	res, err := mach.Run("peek", []int64{1000, 7}, []taint.Label{n, eng.Table.Base("v")})
	if err != nil || res.Value != 0 || res.Label != n {
		t.Fatalf("peek on a fresh machine: %+v, %v; want 0 with the label of its address alone", res, err)
	}
}

// pooledAfter runs run, which ends a run on prog, until prog's pool gives the
// arena back: a sync.Pool may lose what it is given (under the race detector
// it drops every fourth Put on purpose, and a goroutine that changes its P
// does not find what it left on the old one).
func pooledAfter(t *testing.T, prog *interp.Program, run func()) interp.PooledArena {
	t.Helper()
	for range 100 {
		run()
		if pa, ok := prog.TakeArena(); ok {
			return pa
		}
	}
	t.Fatal("100 runs and the program's pool never held an arena")
	panic("unreachable")
}

// TestArenaRetention pins what the pool of a Program may keep. A run whose
// heap or shadow outgrew MaxPooledCells leaves nothing behind; an allocation
// past the heap limit ends in the error it always did, with the arena back
// and clean; and an arena that is kept carries nothing of the run that used
// it — no heap cell or label up to its capacity, no taint record, extern
// closure, machine or engine — in any engine, after a result and after an
// abort, while the frames and call paths the next run reuses stay.
func TestArenaRetention(t *testing.T) {
	mod := fillPeekModule()
	peek := func(prog *interp.Program, mode interp.Mode, n int64) (*interp.Machine, error) {
		eng := taint.NewEngine()
		mach := interp.NewMachine(mod)
		mach.Mode, mach.Prog, mach.Taint = mode, prog, eng
		_, err := mach.Run("peek", []int64{n, 7}, []taint.Label{eng.Table.Base("n"), eng.Table.Base("v")})
		return mach, err
	}
	for _, mode := range []interp.Mode{interp.ModeFast, interp.ModeReference} {
		prog := interp.Predecode(mod)
		if _, err := peek(prog, mode, interp.MaxPooledCells+1); err != nil {
			t.Fatal(err)
		}
		if got, ok := prog.TakeArena(); ok {
			t.Errorf("%v: a run over %d cells left its arena in the pool (heap %d, shadow %d cells)", mode, interp.MaxPooledCells+1, got.HeapCap, got.ShadowCap)
		}
		got := pooledAfter(t, prog, func() {
			mach, err := peek(prog, mode, 1<<28+1)
			if err == nil || !strings.Contains(err.Error(), "heap limit exceeded") {
				t.Fatalf("%v: allocation past the heap limit: %v", mode, err)
			}
			if len(mach.Heap()) != 0 {
				t.Errorf("%v: the machine still holds a heap after Run", mode)
			}
		})
		if len(got.Kept) > 0 {
			t.Errorf("%v: the arena of a run refused at the heap limit keeps %v", mode, got.Kept)
		}
		got = pooledAfter(t, prog, func() {
			if _, err := peek(prog, mode, 100); err != nil {
				t.Fatal(err)
			}
		})
		if got.HeapCap < 100 || got.HeapCap > interp.MaxPooledCells || len(got.Kept) > 0 {
			t.Errorf("%v: pooled after a 100-cell run: %+v", mode, got)
		}
	}

	// Generated modules call helpers and the MPI externs under tainted
	// branches and loops: every kind of scratch slot gets used.
	for seed := int64(1); seed <= 12; seed++ {
		gmod := genModule(seed, genConfig{funcs: 3, stmts: 6, maxDepth: 2, leaves: 2, scopes: 0xf, counted: 0xff})
		total := instructionsOf(t, gmod, []int64{5, 9, 3})
		for _, mode := range []interp.Mode{interp.ModeFast, interp.ModeReference} {
			for _, fuel := range []int64{0, total / 2} {
				prog := interp.Predecode(gmod)
				got := pooledAfter(t, prog, func() {
					eng := taint.NewEngine()
					mach := interp.NewMachine(gmod)
					mach.Mode, mach.Prog, mach.Taint, mach.Fuel = mode, prog, eng, fuel
					libdb.DefaultMPI().Bind(mach, eng, libdb.RunConfig{CommSize: 8})
					labels := []taint.Label{eng.Table.Base("x"), eng.Table.Base("y"), eng.Table.Base("z")}
					if _, err := mach.Run("main", []int64{5, 9, 3}, labels); (err != nil) != (fuel != 0) {
						t.Fatalf("seed %d %v fuel %d: %v", seed, mode, fuel, err)
					}
					if len(mach.Heap()) != 0 {
						t.Errorf("seed %d %v: the machine still holds a heap after Run", seed, mode)
					}
				})
				if len(got.Kept) > 0 {
					t.Errorf("seed %d %v fuel %d: the pooled arena keeps %v", seed, mode, fuel, got.Kept)
				}
				if mode != interp.ModeReference && (got.Frames == 0 || got.Paths == 0) {
					t.Errorf("seed %d %v: the pooled arena has %d frames and %d call paths for the next run, want some", seed, mode, got.Frames, got.Paths)
				}
			}
		}
	}
}
