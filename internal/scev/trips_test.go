package scev_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/scev"
	"repro/internal/taint"
)

// buildCounted builds main(): `for i := init; i cmp bound; i += step {}` out
// of constants, block by block (the builder's For only knows `<`), with the
// latch subtracting -step instead when sub is set.
func buildCounted(cmp ir.Opcode, init, bound, step int64, sub bool) *ir.Module {
	mod := ir.NewModule("counted")
	b := ir.NewFunc(mod, "main", 0)
	hi := b.Const(bound)
	if sub {
		step = -step
	}
	st := b.Const(step)
	i := b.Mov(b.Const(init))
	header, body, latch, exit := b.NewBlock("header"), b.NewBlock("body"), b.NewBlock("latch"), b.NewBlock("exit")
	b.Jmp(header)
	b.SetBlock(header)
	b.Br(b.Bin(cmp, i, hi), body, exit)
	b.SetBlock(body)
	b.Work(b.Const(1))
	b.Jmp(latch)
	b.SetBlock(latch)
	if sub {
		b.MovTo(i, b.Sub(i, st))
	} else {
		b.MovTo(i, b.Add(i, st))
	}
	b.Jmp(header)
	b.SetBlock(exit)
	b.Ret(i)
	b.Finish()
	return mod
}

// TestTripsMatchesInterpreter holds the closed form against the oracle row by
// row: Trips, the static count of the same loop built from constants, and the
// iterations the reference interpreter records must be one number. Rows Trips
// declines (want -1) are loops that leave only after the induction register
// wraps around: the interpreter must still be inside them after a thousand
// iterations' worth of fuel.
func TestTripsMatchesInterpreter(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, tc := range []struct {
		name              string
		cmp               ir.Opcode
		init, bound, step int64
		want              int64 // -1: unknown
	}{
		{"lt/canonical", ir.OpCmpLT, 0, 8, 1, 8},
		{"lt/ceil", ir.OpCmpLT, 0, 10, 3, 4},
		{"lt/exact", ir.OpCmpLT, 0, 9, 3, 3},
		{"lt/empty", ir.OpCmpLT, 5, 3, 1, 0},
		{"lt/equal", ir.OpCmpLT, 3, 3, 1, 0},
		{"lt/one", ir.OpCmpLT, 2, 3, 7, 1},
		{"lt/negative-range", ir.OpCmpLT, -7, -2, 2, 3},
		{"le/canonical", ir.OpCmpLE, 0, 8, 1, 9},
		{"le/floor", ir.OpCmpLE, 0, 10, 3, 4},
		{"le/equal", ir.OpCmpLE, 3, 3, 5, 1},
		{"le/empty", ir.OpCmpLE, 4, 3, 1, 0},
		{"gt/canonical", ir.OpCmpGT, 8, 0, -1, 8},
		{"gt/ceil", ir.OpCmpGT, 10, 0, -3, 4},
		{"gt/empty", ir.OpCmpGT, 0, 0, -1, 0},
		{"ge/canonical", ir.OpCmpGE, 8, 0, -1, 9},
		{"ge/floor", ir.OpCmpGE, 10, 0, -3, 4},
		{"ge/empty", ir.OpCmpGE, -1, 0, -1, 0},

		// The wrong direction and the zero step leave at once or never.
		{"lt/zero-step-empty", ir.OpCmpLT, 3, 3, 0, 0},
		{"lt/zero-step", ir.OpCmpLT, 0, 3, 0, -1},
		{"lt/away", ir.OpCmpLT, 0, 3, -1, -1},
		{"le/away-empty", ir.OpCmpLE, 4, 3, -1, 0},
		{"gt/zero-step", ir.OpCmpGT, 3, 0, 0, -1},
		{"gt/away", ir.OpCmpGT, 3, 0, 1, -1},
		{"ge/away", ir.OpCmpGE, 0, 0, 1, -1},

		// Overflow: (bound - init + step - 1) / step wraps on all of these.
		{"lt/huge-step", ir.OpCmpLT, 0, 10, maxI, 1},
		{"lt/wide-range", ir.OpCmpLT, -1 << 62, 1 << 62, 1 << 61, 4},
		{"lt/full-range", ir.OpCmpLT, minI, maxI - 1<<62, 1 << 62, 3},
		{"lt/full-range-wraps", ir.OpCmpLT, minI, maxI, 1 << 62, -1},
		{"lt/exit-at-max", ir.OpCmpLT, maxI - 4, maxI, 2, 2},
		{"lt/exit-wraps", ir.OpCmpLT, maxI - 1, maxI, 2, -1},
		{"le/bound-at-max", ir.OpCmpLE, maxI - 2, maxI, 1, -1},
		{"le/exit-at-max", ir.OpCmpLE, maxI - 4, maxI - 2, 2, 2},
		{"le/exit-wraps", ir.OpCmpLE, maxI - 3, maxI - 1, 2, -1},
		{"le/wide-range", ir.OpCmpLE, minI, -1, maxI, 2},
		{"le/wide-range-wraps", ir.OpCmpLE, minI, maxI - 1, maxI, -1},
		{"gt/huge-step", ir.OpCmpGT, 0, -10, minI + 1, 1},
		{"gt/min-step", ir.OpCmpGT, 5, -5, minI, 1},
		{"gt/min-step-wraps", ir.OpCmpGT, -1, -5, minI, -1},
		{"gt/wide-range", ir.OpCmpGT, 1 << 62, -1 << 62, -1 << 61, 4},
		{"gt/exit-at-min", ir.OpCmpGT, minI + 4, minI, -2, 2},
		{"gt/exit-wraps", ir.OpCmpGT, minI + 1, minI, -2, -1},
		{"ge/bound-at-min", ir.OpCmpGE, minI + 2, minI, -1, -1},
		{"ge/exit-at-min", ir.OpCmpGE, minI + 4, minI + 2, -2, 2},
		{"ge/exit-wraps", ir.OpCmpGE, minI + 3, minI + 1, -2, -1},
		{"ge/wide-range", ir.OpCmpGE, maxI, 0, minI + 1, 2},
		{"ge/wide-range-wraps", ir.OpCmpGE, maxI, minI + 1, minI + 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, ok := scev.Trips(tc.cmp, tc.init, tc.bound, tc.step)
			if ok != (tc.want >= 0) || ok && n != tc.want {
				t.Fatalf("Trips(%v, %d, %d, %d) = %d, %v; want %d", tc.cmp, tc.init, tc.bound, tc.step, n, ok, tc.want)
			}
			for _, sub := range []bool{false, true} {
				if sub && tc.step == minI {
					continue // its negation is no constant
				}
				mod := buildCounted(tc.cmp, tc.init, tc.bound, tc.step, sub)
				loops := scev.AnalyzeFunc(mod.Funcs["main"], nil).Loops
				// A zero step is no induction: the loop is counted, not constant.
				if len(loops) != 1 || loops[0].Constant != (tc.step != 0) || loops[0].Counted == nil || loops[0].Counted.Sub != sub {
					t.Fatalf("sub=%v: classified %+v, want one counted loop", sub, loops)
				}
				if loops[0].Constant && loops[0].Count != tc.want {
					t.Errorf("sub=%v: static count %d, want %d", sub, loops[0].Count, tc.want)
				}

				eng := taint.NewEngine()
				mach := interp.NewMachine(mod)
				mach.Mode = interp.ModeReference
				mach.Taint = eng
				mach.Fuel = 10_000
				_, err := mach.Run("main", nil, nil)
				if tc.want < 0 {
					if !errors.Is(err, interp.ErrFuel) {
						t.Errorf("sub=%v: the oracle left a loop Trips calls unknown: %v", sub, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("sub=%v: oracle run: %v", sub, err)
				}
				recs := eng.SortedLoops()
				if len(recs) != 1 || recs[0].Iterations != tc.want {
					t.Errorf("sub=%v: the oracle ran %+v, want %d iterations", sub, recs, tc.want)
				}
			}
		})
	}
}

// TestTripsMatchesSimulation holds Trips against the loop run step by step
// under wrapping arithmetic, on operands drawn from around the ends of the
// range, around zero and around the large powers of two (so that most loops
// are short): a loop that leaves before its induction value wraps has exactly
// the count Trips gives, and one that wraps first, or never moves, has none.
func TestTripsMatchesSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	operand := func() int64 {
		switch r.Intn(6) {
		case 0:
			return math.MinInt64 + int64(r.Intn(6))
		case 1:
			return math.MaxInt64 - int64(r.Intn(6))
		case 2:
			return int64(r.Intn(11)) - 5
		case 3:
			return int64(1)<<uint(55+r.Intn(8)) + int64(r.Intn(5)) - 2
		case 4:
			return -(int64(1) << uint(55+r.Intn(8))) + int64(r.Intn(5)) - 2
		}
		return int64(r.Uint64())
	}
	holds := func(cmp ir.Opcode, a, b int64) bool {
		switch cmp {
		case ir.OpCmpLT:
			return a < b
		case ir.OpCmpLE:
			return a <= b
		case ir.OpCmpGT:
			return a > b
		}
		return a >= b
	}
	const limit = 2000
	for range 200_000 {
		cmp := ir.OpCmpLT + ir.Opcode(r.Intn(4))
		init, bound, step := operand(), operand(), operand()
		n, ok := scev.Trips(cmp, init, bound, step)
		i, ran, wraps := init, int64(0), false
		for ran < limit && !wraps && holds(cmp, i, bound) {
			next := i + step
			wraps = step == 0 || (step > 0) != (next > i)
			i, ran = next, ran+1
		}
		switch {
		case wraps:
			if ok {
				t.Fatalf("Trips(%v, %d, %d, %d) = %d, but the loop wraps in iteration %d", cmp, init, bound, step, n, ran)
			}
		case ran == limit:
			if ok && n < limit {
				t.Fatalf("Trips(%v, %d, %d, %d) = %d, but the loop runs longer", cmp, init, bound, step, n)
			}
		case !ok || n != ran:
			t.Fatalf("Trips(%v, %d, %d, %d) = %d, %v; the loop runs %d iterations", cmp, init, bound, step, n, ok, ran)
		}
	}
}

// TestCountedForms pins which loops are counted and how their closed form is
// normalised: the induction register on the left of a compare under which the
// loop continues, whichever way the header spells its test.
func TestCountedForms(t *testing.T) {
	type loopSpec struct {
		swap, invert bool // bound on the left; leave on the true edge
		body         func(b *ir.Builder, i, hi, st ir.Reg)
		latch        func(b *ir.Builder, i, st ir.Reg)
	}
	stepped := func(b *ir.Builder, i, st ir.Reg) { b.MovTo(i, b.Add(i, st)) }
	build := func(cmp ir.Opcode, s loopSpec) *scev.Counted {
		mod := ir.NewModule("forms")
		b := ir.NewFunc(mod, "f", 2)
		hi, st := b.Mov(b.Param(0)), b.Mov(b.Param(1))
		i := b.Mov(b.Const(0))
		header, body, latch, exit := b.NewBlock("header"), b.NewBlock("body"), b.NewBlock("latch"), b.NewBlock("exit")
		b.Jmp(header)
		b.SetBlock(header)
		x, y := i, hi
		if s.swap {
			x, y = hi, i
		}
		if s.invert {
			b.Br(b.Bin(cmp, x, y), exit, body)
		} else {
			b.Br(b.Bin(cmp, x, y), body, exit)
		}
		b.SetBlock(body)
		if s.body != nil {
			s.body(b, i, hi, st)
		}
		if b.CurBlock() != nil {
			b.Jmp(latch)
		}
		b.SetBlock(latch)
		s.latch(b, i, st)
		b.Jmp(header)
		b.SetBlock(exit)
		b.Ret(i)
		fn := b.Finish()
		tc := scev.AnalyzeFunc(fn, nil).Loops[0]
		if tc.Constant {
			t.Fatalf("a parameter-bounded loop came out constant: %+v", tc)
		}
		if c := tc.Counted; c != nil && (c.IV != i || c.Bound != hi || c.Step != st) {
			t.Fatalf("closed form over registers %+v, want iv r%d bound r%d step r%d", c, i, hi, st)
		}
		return tc.Counted
	}

	for _, tc := range []struct {
		name string
		cmp  ir.Opcode
		spec loopSpec
		want ir.Opcode // 0: not counted
		sub  bool
	}{
		{"lt", ir.OpCmpLT, loopSpec{latch: stepped}, ir.OpCmpLT, false},
		{"ge-sub", ir.OpCmpGE, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) { b.MovTo(i, b.Sub(i, st)) }}, ir.OpCmpGE, true},
		{"swapped", ir.OpCmpGT, loopSpec{swap: true, latch: stepped}, ir.OpCmpLT, false},
		{"inverted", ir.OpCmpGE, loopSpec{invert: true, latch: stepped}, ir.OpCmpLT, false},
		{"swapped-inverted", ir.OpCmpLT, loopSpec{swap: true, invert: true, latch: stepped}, ir.OpCmpLE, false},
		{"step-on-the-left", ir.OpCmpLE, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) { b.MovTo(i, b.Add(st, i)) }}, ir.OpCmpLE, false},
		{"in-place", ir.OpCmpLT, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) {
			blk := b.CurBlock()
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpAdd, Dst: i, A: i, B: st})
		}}, ir.OpCmpLT, false},

		{"equality", ir.OpCmpNE, loopSpec{latch: stepped}, 0, false},
		{"reversed-sub", ir.OpCmpLT, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) { b.MovTo(i, b.Sub(st, i)) }}, 0, false},
		{"scaled", ir.OpCmpLT, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) { b.MovTo(i, b.Mul(i, st)) }}, 0, false},
		{"two-updates", ir.OpCmpLT, loopSpec{latch: func(b *ir.Builder, i, st ir.Reg) { stepped(b, i, st); stepped(b, i, st) }}, 0, false},
		{"update-in-body", ir.OpCmpLT, loopSpec{body: func(b *ir.Builder, i, _, st ir.Reg) { stepped(b, i, st) }, latch: func(*ir.Builder, ir.Reg, ir.Reg) {}}, 0, false},
		{"bound-written", ir.OpCmpLT, loopSpec{body: func(b *ir.Builder, _, hi, st ir.Reg) { b.MovTo(hi, b.Sub(hi, st)) }, latch: stepped}, 0, false},
		{"step-written", ir.OpCmpLT, loopSpec{body: func(b *ir.Builder, _, _, st ir.Reg) { b.MovTo(st, b.Add(st, st)) }, latch: stepped}, 0, false},
		{"second-exit", ir.OpCmpLT, loopSpec{body: func(b *ir.Builder, i, hi, _ ir.Reg) {
			out, on := b.NewBlock("out"), b.NewBlock("on")
			b.Br(b.CmpEQ(i, hi), out, on)
			b.SetBlock(out)
			b.Ret(i)
			b.SetBlock(on)
		}, latch: stepped}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := build(tc.cmp, tc.spec)
			if tc.want == 0 {
				if c != nil {
					t.Fatalf("counted as %+v", c)
				}
				return
			}
			if c == nil || c.Cmp != tc.want || c.Sub != tc.sub {
				t.Fatalf("closed form %+v, want compare %v sub %v", c, tc.want, tc.sub)
			}
		})
	}
}
