package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/taint"
)

// naiveCtl is the scope stack as it was before it carried a summary: every
// read rescans the stack. It is the model the summary is checked against.
type naiveCtl struct {
	ctl      []ctlScope
	born     []int
	writeSeq int
	seqBase  int
	ctlBase  taint.Label
}

func (n *naiveCtl) regCtl(dst int) taint.Label {
	l := taint.None
	for _, s := range n.ctl {
		if !s.loopExit || (n.born[dst] >= n.seqBase && n.born[dst] < s.openSeq) {
			l |= s.label
		}
	}
	return l
}

func (n *naiveCtl) memCtl() taint.Label {
	l := n.ctlBase
	for _, s := range n.ctl {
		l |= s.label
	}
	return l
}

func (n *naiveCtl) write(dst int, wl taint.Label) taint.Label {
	wl |= n.regCtl(dst)
	if n.born[dst] < n.seqBase {
		n.born[dst] = n.writeSeq
	}
	n.writeSeq++
	return wl
}

func (n *naiveCtl) push(join int, label taint.Label, loopExit bool) {
	for i := range n.ctl {
		s := &n.ctl[i]
		if s.join == join && s.label == label && s.loopExit == loopExit {
			s.openSeq = n.writeSeq
			return
		}
	}
	n.ctl = append(n.ctl, ctlScope{join: join, label: label, loopExit: loopExit, openSeq: n.writeSeq})
}

func (n *naiveCtl) closeAt(blk int) {
	n.ctl = slices.DeleteFunc(n.ctl, func(s ctlScope) bool { return s.join == blk })
}

// begin is a clean return followed by the next activation on the frame.
func (n *naiveCtl) begin(ctlBase taint.Label, params int) {
	n.seqBase = n.writeSeq
	n.ctl = n.ctl[:0]
	n.ctlBase = ctlBase
	n.writeSeq = n.seqBase + 1
	for i := 0; i < params; i++ {
		n.born[i] = n.seqBase
	}
}

// TestCtlStateSummaryMatchesScan drives random push / closeAt / write /
// reset / begin sequences through ctlState and the naive scan. After every
// step the stack contents, born, the write sequence, memCtl and — for every
// register — the control label a write would receive must agree. Joins are
// drawn so that distinct ones collide in the 64-bit filter (j, j+64, j+128,
// and -1, which shares bit 63), and writes fall between pushes so that born
// values straddle loop scopes.
func TestCtlStateSummaryMatchesScan(t *testing.T) {
	const regs, params = 6, 2
	joins := []int{-1, 0, 1, 2, 63, 64, 65, 66, 127, 128, 129, 191}
	labels := []taint.Label{0, 1, 2, 4, 3, 8}

	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cs := &ctlState{born: make([]int, regs), seqBase: 1}
		cs.begin(taint.None, true, params)
		nv := &naiveCtl{born: make([]int, regs), seqBase: 1, writeSeq: 2}
		for i := 0; i < params; i++ {
			nv.born[i] = 1
		}

		agree := func(step int, op string) bool {
			if !slices.Equal(cs.ctl, nv.ctl) || !slices.Equal(cs.born, nv.born) || cs.writeSeq != nv.writeSeq {
				t.Errorf("seed %d step %d (%s): state diverged\n summary: %+v born %v seq %d\n scan:    %+v born %v seq %d",
					seed, step, op, cs.ctl, cs.born, cs.writeSeq, nv.ctl, nv.born, nv.writeSeq)
				return false
			}
			if got, want := cs.memCtl(), nv.memCtl(); got != want {
				t.Errorf("seed %d step %d (%s): memCtl = %b, scan says %b (stack %+v)", seed, step, op, got, want, cs.ctl)
				return false
			}
			// The summary is exactly what a rebuild from the stack gives (a
			// stale bound would still answer right, through the scan, but no
			// longer in O(1)); the filter may only keep bits too many.
			fresh := *cs
			fresh.summarize()
			if cs.plain != fresh.plain || cs.all != fresh.all || cs.loopMin != fresh.loopMin || cs.loopMax != fresh.loopMax || cs.joins&fresh.joins != fresh.joins {
				t.Errorf("seed %d step %d (%s): summary plain=%b all=%b loop=[%d,%d] joins=%x, a rebuild gives plain=%b all=%b loop=[%d,%d] joins=%x (stack %+v)",
					seed, step, op, cs.plain, cs.all, cs.loopMin, cs.loopMax, cs.joins, fresh.plain, fresh.all, fresh.loopMin, fresh.loopMax, fresh.joins, cs.ctl)
				return false
			}
			for dst := 0; dst < regs; dst++ {
				// write on a copy: the label a write of dst would get now.
				peek := *cs
				peek.born = slices.Clone(cs.born)
				if got, want := peek.write(int32(dst), taint.None), nv.regCtl(dst); got != want {
					t.Errorf("seed %d step %d (%s): control label of r%d = %b, scan says %b\n stack %+v born %v seqBase %d summary plain=%b all=%b loop=[%d,%d]",
						seed, step, op, dst, got, want, cs.ctl, cs.born, cs.seqBase, cs.plain, cs.all, cs.loopMin, cs.loopMax)
					return false
				}
			}
			return true
		}

		for step := 0; step < 300; step++ {
			var op string
			switch k := r.Intn(20); {
			case k < 6:
				op = "push"
				join, label, loop := joins[r.Intn(len(joins))], labels[r.Intn(len(labels))], r.Intn(2) == 0
				cs.push(join, label, loop)
				nv.push(join, label, loop)
			case k < 10:
				op = "closeAt"
				// Block indices are never negative; 63 shares join -1's bit.
				blk := joins[1+r.Intn(len(joins)-1)]
				cs.closeAt(int32(blk))
				nv.closeAt(blk)
			case k < 18:
				op = "write"
				dst, wl := r.Intn(regs), labels[r.Intn(len(labels))]
				if got, want := cs.write(int32(dst), wl), nv.write(dst, wl); got != want {
					t.Errorf("seed %d step %d: write r%d = %b, scan says %b", seed, step, dst, got, want)
					return false
				}
			case k < 19:
				op = "reset"
				cs.reset()
				nv.ctl = nv.ctl[:0]
			default:
				op = "begin"
				base := labels[r.Intn(len(labels))]
				cs.seqBase = cs.writeSeq // what a clean return leaves behind
				cs.begin(base, true, params)
				nv.begin(base, params)
			}
			if !agree(step, op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// renderRecords renders the loop and branch records eng holds for main.
func renderRecords(eng *taint.Engine, main *ir.Function) string {
	var recs string
	for _, r := range eng.SortedLoops() {
		recs += fmt.Sprintf("loop %s@%d %b %d/%d;", r.Key.CallPath, r.Header, r.Labels, r.Iterations, r.Entries)
	}
	for blk := range main.Blocks {
		if r := eng.Branches[taint.BranchKey{Func: main.Name, Block: blk}]; r != nil {
			recs += fmt.Sprintf("branch @%d %b %d/%d;", blk, r.Labels, r.Taken, r.NotTaken)
		}
	}
	return recs
}

// genSummarizedLoop builds main(x, y, z) around one loop that carries a loop
// summary, under up to three control scopes — tainted ifs and, unless
// retInside, tainted outer loops that enter it again — with registers written
// before and between the scope openings, so that their births fall on either
// side of every openSeq. The loop runs 0 to 30 times, up or down, by a step
// and towards a bound that are constants with or without a label; its body
// is a random straight line over the induction register, the invariants and
// its own temporaries, some of them registers born before the scopes opened
// and written here before they are read. retInside returns from inside the
// scopes, right after the loop, so that the scope stack outlives the run.
func genSummarizedLoop(r *rand.Rand, retInside bool) *ir.Module {
	mod := ir.NewModule("settle")
	g := ir.NewFunc(mod, "get", 0)
	g.Ret(g.Const(7))
	g.Finish()

	b := ir.NewFunc(mod, "main", 3)
	zero := b.Const(0)
	// val is the constant c, under the label of a parameter or under none.
	val := func(c int64) ir.Reg {
		if r.Intn(2) == 0 {
			return b.Const(c)
		}
		return b.Add(b.Bin(ir.OpAnd, b.Param(r.Intn(3)), zero), b.Const(c))
	}
	// inv is what the loop may read but never writes, scratch what its body
	// may write first and read then.
	inv := []ir.Reg{b.Param(0), b.Param(1), b.Param(2), zero}
	var scratch []ir.Reg
	acc := b.Mov(zero)
	fill := func() {
		for range r.Intn(3) {
			reg := b.Add(inv[r.Intn(len(inv))], val(int64(r.Intn(5))))
			if r.Intn(2) == 0 {
				inv = append(inv, reg)
			} else {
				scratch = append(scratch, reg)
			}
		}
	}
	loop := func() {
		lo, hi, step := int64(r.Intn(9)-4), int64(r.Intn(30)), int64(1+r.Intn(3))
		cmp, sub := ir.OpCmpLT+ir.Opcode(r.Intn(2)), false
		if r.Intn(2) == 0 { // downwards
			lo, hi, cmp = lo+hi, lo, ir.OpCmpGT+ir.Opcode(r.Intn(2))
			if sub = r.Intn(2) == 0; !sub {
				step = -step
			}
		} else {
			hi += lo
		}
		bound, st := val(hi), val(step)
		iv := b.Mov(val(lo))
		header, body, latch, exit := b.NewBlock("header"), b.NewBlock("body"), b.NewBlock("latch"), b.NewBlock("exit")
		b.Jmp(header)
		b.SetBlock(header)
		b.Br(b.Bin(cmp, iv, bound), body, exit)
		b.SetBlock(body)
		temps := []ir.Reg{iv}
		operand := func() ir.Reg {
			if r.Intn(3) == 0 {
				return inv[r.Intn(len(inv))]
			}
			return temps[r.Intn(len(temps))]
		}
		for range 1 + r.Intn(5) {
			var t ir.Reg
			switch r.Intn(6) {
			case 0:
				t = b.Call("get")
			case 1:
				t = val(int64(r.Intn(3)))
			case 2:
				t = b.Neg(operand())
			default:
				t = b.Bin(ir.OpAdd+ir.Opcode(r.Intn(3)), operand(), operand())
			}
			if r.Intn(3) == 0 {
				b.Work(t)
			}
			temps = append(temps, t)
			if len(scratch) > 0 && r.Intn(3) == 0 {
				k := r.Intn(len(scratch))
				b.MovTo(scratch[k], t)
				temps = append(temps, scratch[k])
				scratch = slices.Delete(scratch, k, k+1)
			}
		}
		b.Jmp(latch)
		b.SetBlock(latch)
		if sub {
			b.MovTo(iv, b.Sub(iv, st))
		} else {
			b.MovTo(iv, b.Add(iv, st))
		}
		b.Jmp(header)
		b.SetBlock(exit)
		b.MovTo(acc, b.Add(acc, b.Add(temps[len(temps)-1], iv)))
		if retInside {
			b.Ret(acc)
		}
	}
	var nest func(depth int)
	nest = func(depth int) {
		fill()
		if depth == 0 {
			loop()
			return
		}
		// The scopes' conditions hold whatever the arguments are.
		p := b.Param(r.Intn(3))
		if retInside || r.Intn(2) == 0 {
			b.If(b.CmpEQ(b.Bin(ir.OpAnd, p, zero), zero), func() { nest(depth - 1) }, nil)
		} else {
			b.For(zero, b.Add(b.Bin(ir.OpAnd, p, b.Const(1)), b.Const(1)), b.Const(1), func(ir.Reg) { nest(depth - 1) })
		}
	}
	nest(r.Intn(4))
	if b.CurBlock() != nil {
		b.Ret(acc)
	}
	b.Finish()
	return mod
}

// TestLoopSummaryMatchesEveryIteration is the label-stability property behind
// the loop summaries (see settledAt and skipLoop): for random summarized
// loops under random open scopes, a run that skips the iterations it may and
// a run kept from skipping through Machine.everyIteration end in the same
// state — result, instruction count, loop and branch records, and in main's
// frame every register's value, label and birth, the write sequence and the
// scope stack with every openSeq, so each register was born on the same side
// of every open scope.
func TestLoopSummaryMatchesEveryIteration(t *testing.T) {
	// How many runs skipped iterations at all, and how many of them returned
	// with scopes still open.
	fired, firedInScope := 0, 0
	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		retInside := r.Intn(2) == 0
		mod := genSummarizedLoop(r, retInside)
		prog := Predecode(mod)
		if n := prog.NumLoopSummaries(); n != 1 {
			t.Errorf("seed %d: %d loop summaries, want the inner loop's", seed, n)
			return false
		}
		args := []Value{Value(r.Intn(16)), Value(r.Intn(16)), Value(r.Intn(16))}
		labelled := [3]bool{r.Intn(4) != 0, r.Intn(4) != 0, r.Intn(4) != 0}
		cflow := r.Intn(8) != 0

		type state struct {
			res    Result
			recs   string
			regs   []Value
			labels []taint.Label
			born   []int
			seq    int
			ctl    []ctlScope
		}
		exec := func(everyIteration bool) state {
			// Main's frame goes back to the program's pool with the run, so
			// each run gets a program of its own — a fresh arena, the same
			// epochs on both sides — and its arena is taken out afterwards.
			// A sync.Pool may mislay what it was given (under the race
			// detector it drops every fourth Put on purpose): run again.
			for {
				eng := taint.NewEngine()
				eng.ControlFlow = cflow
				mach := NewMachine(mod)
				mach.Prog = Predecode(mod)
				mach.Taint = eng
				mach.everyIteration = everyIteration
				argLabels := make([]taint.Label, 3)
				for i, name := range []string{"x", "y", "z"} {
					if labelled[i] {
						argLabels[i] = eng.Table.Base(name)
					}
				}
				res, err := mach.Run("main", args, argLabels)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				a, _ := mach.Prog.arenas.Get().(*runArena)
				if a == nil {
					continue
				}
				fr := a.frames[0]
				return state{*res, renderRecords(eng, mod.Funcs["main"]), fr.regs, fr.labels, fr.cs.born, fr.cs.writeSeq, fr.cs.ctl}
			}
		}
		skip, every := exec(false), exec(true)
		if skip.res.Summarized > every.res.Summarized {
			fired++
			if len(skip.ctl) > 0 {
				firedInScope++
			}
		}
		skip.res.Summarized = every.res.Summarized
		if skip.res != every.res || skip.recs != every.recs || skip.seq != every.seq ||
			!slices.Equal(skip.regs, every.regs) || !slices.Equal(skip.labels, every.labels) ||
			!slices.Equal(skip.born, every.born) || !slices.Equal(skip.ctl, every.ctl) {
			t.Errorf("seed %d (args %v labelled %v cflow %v): the skipping run diverged\n skipping: %+v\n every iteration: %+v\n%s",
				seed, args, labelled, cflow, skip, every, mod.Funcs["main"])
			return false
		}
		return true
	}
	const count = 1500
	if err := quick.Check(run, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
	if fired < count/2 || firedInScope < count/8 {
		t.Fatalf("a loop summary fired in %d of %d runs, in %d under a scope still open at the return", fired, count, firedInScope)
	}
}
