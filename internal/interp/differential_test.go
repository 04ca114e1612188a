package interp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/libdb"
	"repro/internal/taint"
)

// This file is the differential harness of the fast engine: seeded random
// modules (plus truncated-fuel variants) are executed under both
// interpreter modes and every observable — result value, label parameter
// sets, instruction counts, loop/branch/libcall records (call-path strings
// included), and recursion warnings — must match exactly.

// ---- random module generator (seeded, table-driven) ----

// genConfig bounds one generated module.
type genConfig struct {
	funcs    int // helper functions besides main
	stmts    int // statements per body
	maxDepth int // nesting depth of ifs/loops/switches
	// leaves is the number of straight-line leaf functions (see buildLeaf)
	// built before the helpers. Zero draws nothing extra from the random
	// stream, so a module generated without leaves stays what it was.
	leaves int
	// scopes selects the control-scope shapes appended to main, one bit each
	// (see scopeShapes). No shape draws from the random stream, selected or
	// not, so the rest of the module stays what it was.
	scopes uint8
	// counted selects the counted-loop shapes appended to main, one bit each
	// (see countedShapes), under the same rule: none draws from the random
	// stream.
	counted uint8
}

type gen struct {
	r   *rand.Rand
	mod *ir.Module
	cfg genConfig
	// callable helper functions built so far, with their arities.
	callees []struct {
		name   string
		params int
	}
}

// genModule builds a random but always-terminating module whose main takes
// three tainted parameters. Loops are counted with masked bounds, memory
// indices are masked in-bounds, and helpers form a DAG, so the only way a
// run can fail is fuel exhaustion — which the harness also compares.
func genModule(seed int64, cfg genConfig) *ir.Module {
	g := &gen{r: rand.New(rand.NewSource(seed)), mod: ir.NewModule(fmt.Sprintf("rand%d", seed)), cfg: cfg}
	if cfg.leaves > 0 {
		first := g.r.Intn(numLeafShapes)
		for i := 0; i < cfg.leaves; i++ {
			g.buildLeaf(fmt.Sprintf("g%d", i), (first+i)%numLeafShapes)
		}
	}
	for i := 0; i < cfg.funcs; i++ {
		params := 1 + g.r.Intn(3)
		name := fmt.Sprintf("f%d", i)
		g.buildFunc(name, params)
		g.callees = append(g.callees, struct {
			name   string
			params int
		}{name, params})
	}
	if cfg.scopes&scopeRecurse != 0 {
		g.buildRecursive()
	}
	g.buildFunc("main", 3)
	return g.mod
}

// body carries the open-scope state while generating one function.
type body struct {
	g     *gen
	b     *ir.Builder
	pool  []ir.Reg // value registers defined on every path to here
	arr   ir.Reg   // base of the 8-cell scratch array
	depth int
}

func (g *gen) buildFunc(name string, params int) {
	b := ir.NewFunc(g.mod, name, params)
	bd := &body{g: g, b: b}
	for i := 0; i < params; i++ {
		bd.pool = append(bd.pool, b.Param(i))
	}
	bd.arr = b.Alloc(b.Const(8))
	// Seed the scratch array with the parameters.
	for i := 0; i < params; i++ {
		b.Store(bd.arr, int64(i), b.Param(i))
	}
	if name == "main" {
		// First, while the parameters still carry their base labels alone.
		bd.scopeShapes()
		bd.countedShapes()
	}
	n := 2 + g.r.Intn(g.cfg.stmts)
	for i := 0; i < n; i++ {
		bd.stmt()
	}
	if g.cfg.leaves > 0 {
		bd.leafCalls()
	}
	b.Ret(bd.pick())
	b.Finish()
}

// numLeafShapes counts the shapes buildLeaf knows.
const numLeafShapes = 7

// buildLeaf adds one single-block function without memory traffic, the
// kind of callee the fast engine may replace by a call summary. Every
// shape but the last returns a constant (or nothing) whatever its
// arguments; the last returns a parameter-dependent value and must keep
// running as an activation.
func (g *gen) buildLeaf(name string, shape int) {
	params := g.r.Intn(3)
	if shape == 3 || shape == 6 {
		params = 1 + g.r.Intn(2) // shapes that read a parameter
	}
	b := ir.NewFunc(g.mod, name, params)
	k := int64(g.r.Intn(21) - 10)
	switch shape {
	case 0: // constant getter, the shape of the bundled apps' accessors
		b.Work(b.Const(int64(1 + g.r.Intn(4))))
		b.Ret(b.Const(k))
	case 1: // void worker
		b.Work(b.Const(int64(1 + g.r.Intn(4))))
		b.Work(b.Const(1))
		b.RetVoid()
	case 2: // wrapper of an earlier leaf (a getter, when one exists)
		if len(g.callees) == 0 {
			b.Ret(b.Neg(b.Const(k)))
			break
		}
		c := g.callees[g.r.Intn(len(g.callees))]
		args := make([]ir.Reg, c.params)
		for i := range args {
			args[i] = b.Const(int64(i))
		}
		b.Ret(b.Bin(ir.OpMax, b.Call(c.name, args...), b.Const(k)))
	case 3: // constant return next to parameter-dependent dead code
		dead := b.Mul(b.Param(0), b.Param(params-1))
		b.MovTo(dead, b.Add(dead, b.Const(k)))
		b.Ret(b.Bin(ir.OpXor, b.Const(k), b.Const(5)))
	case 4: // read of a register nothing ever writes (reads as zero)
		b.Ret(b.Sub(b.NewReg(), b.Const(k)))
	case 5: // divide and modulo by a constant zero fold to zero
		zero := b.Const(0)
		b.Ret(b.Add(b.Div(b.Const(k), zero), b.Mod(b.Const(7), zero)))
	default: // parameter-dependent return: never summarized
		b.Ret(b.Add(b.Param(0), b.Const(k)))
	}
	b.Finish()
	g.callees = append(g.callees, struct {
		name   string
		params int
	}{name, params})
}

// leafCalls calls every leaf from inside a counted loop whose bound and an
// if whose condition derive from parameters (tainted, in main), so the
// write of a call's result happens under open loop-exit and branch scopes.
// Odd leaves return into a register that predates the loop (loop-carried),
// even ones into a fresh per-iteration temporary.
func (bd *body) leafCalls() {
	g, b := bd.g, bd.b
	acc := b.Mov(bd.pick())
	carried := b.Const(0)
	save := len(bd.pool)
	b.For(b.Const(0), b.Bin(ir.OpAnd, b.Param(0), b.Const(3)), b.Const(1), func(i ir.Reg) {
		bd.push(i)
		leaf := func(li int) {
			c := g.callees[li]
			args := make([]ir.Reg, c.params)
			for a := range args {
				args[a] = bd.pick()
			}
			if li%2 == 1 {
				blk := b.CurBlock()
				blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpCall, Dst: carried, A: ir.NoReg, B: ir.NoReg, Sym: c.name, Args: args})
				b.MovTo(acc, b.Add(acc, carried))
			} else {
				b.MovTo(acc, b.Add(acc, b.Call(c.name, args...)))
			}
		}
		b.If(b.CmpLT(i, bd.pick()), func() {
			for li := 0; li < g.cfg.leaves; li += 2 {
				leaf(li)
			}
		}, func() {
			for li := 1; li < g.cfg.leaves; li += 2 {
				leaf(li)
			}
		})
		leaf(g.r.Intn(g.cfg.leaves))
	})
	bd.pool = bd.pool[:save]
	bd.push(acc)
	bd.push(carried)

	// A leaf result first defined as the last write before a loop whose
	// header only branches (no compare in it): the exit scope opens at the
	// very next write sequence, so whether the result counts as
	// loop-carried hinges on the call having recorded the register's birth
	// and advanced the sequence exactly once.
	c := g.callees[g.r.Intn(g.cfg.leaves)]
	args := make([]ir.Reg, c.params)
	for a := range args {
		args[a] = bd.pick()
	}
	cnt := b.Mov(b.Bin(ir.OpAnd, b.Param(0), b.Const(1)))
	one := b.Const(1)
	last := b.Call(c.name, args...)
	header, loop, exit := b.NewBlock("bareheader"), b.NewBlock("barebody"), b.NewBlock("bareexit")
	b.Jmp(header)
	b.SetBlock(header)
	b.Br(cnt, loop, exit)
	b.SetBlock(loop)
	b.MovTo(last, b.Add(last, one))
	b.MovTo(cnt, b.Sub(cnt, one))
	b.Jmp(header)
	b.SetBlock(exit)
	bd.push(last)
}

// The control-scope shapes: each reaches one path of the scope-stack summary
// (see ctlState) that random statements reach rarely or never. They open
// main, whose parameters carry the base labels x, y and z, and end in a probe
// loop whose record shows the label the path produced; their results join
// the pool the random statements draw from.
const (
	// scopeStraddle: a register first written between an outer and an inner
	// tainted loop-exit test, then written inside the inner loop — its born
	// straddles the two loop scopes, the one read that scans the stack.
	scopeStraddle uint8 = 1 << iota
	// scopeCollide: a tainted if whose arm spans more than 64 blocks, so a
	// jump target inside it shares the join block's bit in the close filter.
	scopeCollide
	// scopeTwoExit: a branch that leaves two loops at once.
	scopeTwoExit
	// scopeRecurse: a tainted loop in a function that has not branched yet
	// when its recursive activation runs the same loop.
	scopeRecurse
)

func (bd *body) scopeShapes() {
	sel := bd.g.cfg.scopes
	if sel&scopeStraddle != 0 {
		bd.straddle()
	}
	if sel&scopeCollide != 0 {
		bd.collide()
	}
	if sel&scopeTwoExit != 0 {
		bd.twoExit()
	}
	if sel&scopeRecurse != 0 {
		b := bd.b
		bd.push(b.Call("rec", b.Const(2), b.Param(0)))
	}
}

// probe appends a bare count-down loop whose header block is called name and
// whose exit condition carries exactly v's label into the loop's record.
func (bd *body) probe(name string, v ir.Reg) {
	b := bd.b
	one := b.Const(1)
	cnt := b.Mov(b.Bin(ir.OpAnd, v, one))
	header, loop, exit := b.NewBlock(name), b.NewBlock(name+".body"), b.NewBlock(name+".exit")
	b.Jmp(header)
	b.SetBlock(header)
	b.Br(cnt, loop, exit)
	b.SetBlock(loop)
	b.MovTo(cnt, b.Sub(cnt, one))
	b.Jmp(header)
	b.SetBlock(exit)
}

// straddle runs one iteration of a loop bounded by x around a loop bounded by
// y. t is first written between the two exit tests and accumulated inside the
// inner loop: it is carried by the inner loop only, so its label is y alone.
func (bd *body) straddle() {
	b := bd.b
	zero, one := b.Const(0), b.Const(1)
	var t ir.Reg
	b.For(zero, b.Add(b.Bin(ir.OpAnd, b.Param(0), zero), one), one, func(ir.Reg) {
		t = b.Mov(one)
		b.For(zero, b.Add(b.Bin(ir.OpAnd, b.Param(1), one), one), one, func(j ir.Reg) {
			b.MovTo(t, b.Add(t, j))
		})
	})
	bd.probe("straddle", t)
	bd.push(t)
}

// collide opens a scope on an always-true test of z and walks 33 ifs (66
// blocks) inside it, so one of their blocks sits 64 past the scope's join.
// w is a constant written after them: it carries z only while the scope is
// still open there.
func (bd *body) collide() {
	b := bd.b
	then, join := b.NewBlock("collide.then"), b.NewBlock("collide.join")
	u := b.Const(0)
	b.Br(b.CmpGE(b.Param(2), b.Param(2)), then, join)
	b.SetBlock(then)
	for i := 0; i < 33; i++ {
		b.If(b.CmpLT(u, b.Const(int64(i))), func() { b.MovTo(u, b.Add(u, b.Const(1))) }, nil)
	}
	w := b.Const(7)
	b.Jmp(join)
	b.SetBlock(join)
	bd.probe("collide", w)
	bd.push(u)
}

// twoExit nests two loops bounded by x; the block called twoexit leaves both
// at once as soon as acc passes a bound labelled y, and the inner latch is a
// switch that could (j never gets that far).
func (bd *body) twoExit() {
	b := bd.b
	zero, one := b.Const(0), b.Const(1)
	n := b.Add(b.Bin(ir.OpAnd, b.Param(0), one), one)
	lim := b.Bin(ir.OpAnd, b.Param(1), one)
	i, j, acc := b.Mov(zero), b.Mov(zero), b.Mov(zero)
	outer, outerBody, inner, both := b.NewBlock("two.outer"), b.NewBlock("two.outerbody"), b.NewBlock("two.inner"), b.NewBlock("twoexit")
	innerLatch, outerLatch, exit := b.NewBlock("two.innerlatch"), b.NewBlock("two.outerlatch"), b.NewBlock("two.exit")
	b.Jmp(outer)
	b.SetBlock(outer)
	b.Br(b.CmpLT(i, n), outerBody, exit)
	b.SetBlock(outerBody)
	b.MovTo(j, zero)
	b.Jmp(inner)
	b.SetBlock(inner)
	b.Br(b.CmpLT(j, n), both, outerLatch)
	b.SetBlock(both)
	b.MovTo(acc, b.Add(acc, one))
	b.Br(b.CmpGT(acc, lim), exit, innerLatch)
	b.SetBlock(innerLatch)
	b.MovTo(j, b.Add(j, one))
	b.Switch(j, inner, []ir.SwitchCase{{Value: 5, Block: exit.Index}})
	b.SetBlock(outerLatch)
	b.MovTo(i, b.Add(i, one))
	b.Jmp(outer)
	b.SetBlock(exit)
	bd.push(acc)
}

// The counted-loop shapes: loops the fast engine may or must not execute
// through a loop summary (see summarizeLoop). Each names its header block, so
// the tests can ask whether the loop carries one, reads what the loop wrote
// after it, and pushes that into the pool the random statements draw from.
const (
	// countedTrips: the canonical loop, x&15 iterations (0, 1, 2, 3 and the
	// counts around the warm-up), its induction register and a body
	// temporary read after the loop.
	countedTrips uint8 = 1 << iota
	// countedBound: the bound shrinks inside the body — not a counted loop.
	countedBound
	// countedSteps: a subtracting latch, a negative constant step, a step
	// labelled y, and last a step of z&1 — 0 for an even z, a loop only the
	// fuel ends.
	countedSteps
	// countedCompares: <=, >= and > tests, the bound on the left of the
	// compare, and a header that leaves on its true edge (counted, but not
	// summarized).
	countedCompares
	// countedCarried: the body accumulates into a register that predates the
	// loop, and a second loop reads a temporary before writing it.
	countedCarried
	// countedNested: a counted loop inside a counted loop; the inner one is
	// entered (x&3)+1 times, from the second time on with every register it
	// writes already born, and only its step carries z: the label reaches
	// the body's temporary through the induction register, an iteration
	// late, so one settled-looking header test is not enough to skip on.
	countedNested
	// countedUnderIf: a counted loop inside an if on x < y, both tainted.
	countedUnderIf
	// countedLate: constant bounds and a step labelled y — the exit test is
	// unlabelled until the second iteration.
	countedLate
)

// countedSummaries lists, per shape, the header blocks of the loops it adds
// and whether predecode must give each a summary.
var countedSummaries = map[uint8]map[string]bool{
	countedTrips:    {"trips": true},
	countedBound:    {"bound": false},
	countedSteps:    {"steps.sub": true, "steps.neg": true, "steps.tainted": true, "steps.zero": true},
	countedCompares: {"cmp.le": true, "cmp.ge": true, "cmp.swapped": true, "cmp.inverted": false},
	countedCarried:  {"carried.acc": false, "carried.temp": false},
	countedNested:   {"nested.outer": false, "nested.inner": true},
	countedUnderIf:  {"underif": true},
	countedLate:     {"late": true},
}

// cloop is one hand-laid counted loop: `for iv := lo; iv cmp hi; iv ±= step`.
type cloop struct {
	name         string
	lo, hi, step ir.Reg
	cmp          ir.Opcode
	sub          bool // the latch subtracts step
	swap         bool // the compare is written `hi cmp iv`
	invert       bool // the header leaves on the true edge of cmp
}

// emit lays the loop out block by block, the header called c.name, and
// returns the induction register; body runs with the insertion point inside
// the loop.
func (c cloop) emit(b *ir.Builder, body func(iv ir.Reg)) ir.Reg {
	iv := b.Mov(c.lo)
	header, bodyBlk, latch, exit := b.NewBlock(c.name), b.NewBlock(c.name+".body"), b.NewBlock(c.name+".latch"), b.NewBlock(c.name+".exit")
	b.Jmp(header)
	b.SetBlock(header)
	x, y := iv, c.hi
	if c.swap {
		x, y = c.hi, iv
	}
	if c.invert {
		b.Br(b.Bin(c.cmp, x, y), exit, bodyBlk)
	} else {
		b.Br(b.Bin(c.cmp, x, y), bodyBlk, exit)
	}
	b.SetBlock(bodyBlk)
	body(iv)
	b.Jmp(latch)
	b.SetBlock(latch)
	if c.sub {
		b.MovTo(iv, b.Sub(iv, c.step))
	} else {
		b.MovTo(iv, b.Add(iv, c.step))
	}
	b.Jmp(header)
	b.SetBlock(exit)
	return iv
}

func (bd *body) countedShapes() {
	sel := bd.g.cfg.counted
	if sel == 0 {
		return
	}
	b := bd.b
	x, y, z := b.Param(0), b.Param(1), b.Param(2)
	zero, one, three := b.Const(0), b.Const(1), b.Const(3)
	n := b.Bin(ir.OpAnd, x, b.Const(15))
	// pure is a loop body without a carried register: a temporary derived
	// from the induction register and y, some work, a call-free constant.
	pure := func(t *ir.Reg) func(ir.Reg) {
		return func(iv ir.Reg) {
			*t = b.Add(b.Mul(iv, three), y)
			b.Work(*t)
			b.Work(b.Const(2))
		}
	}
	// after reads what a loop left behind: into the pool and into a probe
	// loop whose record shows the temporary's label.
	after := func(name string, iv, t ir.Reg) {
		bd.push(iv)
		bd.push(t)
		bd.probe(name+".probe", t)
	}
	var t ir.Reg

	if sel&countedTrips != 0 {
		iv := cloop{name: "trips", lo: zero, hi: n, step: one, cmp: ir.OpCmpLT}.emit(b, pure(&t))
		after("trips", iv, t)
	}
	if sel&countedBound != 0 {
		hi := b.Mov(n)
		iv := cloop{name: "bound", lo: zero, hi: hi, step: one, cmp: ir.OpCmpLT}.emit(b, func(iv ir.Reg) {
			pure(&t)(iv)
			b.MovTo(hi, b.Sub(hi, one))
		})
		after("bound", iv, t)
	}
	if sel&countedCompares != 0 {
		iv := cloop{name: "cmp.le", lo: one, hi: n, step: one, cmp: ir.OpCmpLE}.emit(b, pure(&t))
		after("cmp.le", iv, t)
		iv = cloop{name: "cmp.ge", lo: n, hi: three, step: one, cmp: ir.OpCmpGE, sub: true}.emit(b, pure(&t))
		after("cmp.ge", iv, t)
		iv = cloop{name: "cmp.swapped", lo: zero, hi: n, step: three, cmp: ir.OpCmpGT, swap: true}.emit(b, pure(&t))
		after("cmp.swapped", iv, t)
		iv = cloop{name: "cmp.inverted", lo: zero, hi: n, step: one, cmp: ir.OpCmpGE, invert: true}.emit(b, pure(&t))
		after("cmp.inverted", iv, t)
	}
	if sel&countedCarried != 0 {
		acc := b.Mov(y)
		iv := cloop{name: "carried.acc", lo: zero, hi: n, step: one, cmp: ir.OpCmpLT}.emit(b, func(iv ir.Reg) {
			b.MovTo(acc, b.Add(acc, iv))
		})
		after("carried.acc", iv, acc)
		prev := b.Mov(zero)
		iv = cloop{name: "carried.temp", lo: zero, hi: n, step: one, cmp: ir.OpCmpLT}.emit(b, func(iv ir.Reg) {
			t = b.Add(prev, one)
			b.MovTo(prev, b.Mul(iv, iv))
		})
		after("carried.temp", iv, t)
	}
	if sel&countedNested != 0 {
		outer := cloop{name: "nested.outer", lo: zero, hi: b.Add(b.Bin(ir.OpAnd, x, three), one), step: one, cmp: ir.OpCmpLT}
		var inner ir.Reg
		iv := outer.emit(b, func(i ir.Reg) {
			step := b.Add(b.Bin(ir.OpAnd, z, zero), one)
			inner = cloop{name: "nested.inner", lo: i, hi: b.Bin(ir.OpAnd, y, b.Const(15)), step: step, cmp: ir.OpCmpLT}.emit(b, func(j ir.Reg) {
				t = b.Mul(i, j)
				b.Work(t)
			})
		})
		bd.push(inner)
		after("nested", iv, t)
	}
	if sel&countedUnderIf != 0 {
		var iv ir.Reg
		b.If(b.CmpLT(x, y), func() {
			iv = cloop{name: "underif", lo: zero, hi: n, step: one, cmp: ir.OpCmpLT}.emit(b, pure(&t))
		}, nil)
		after("underif", iv, t)
	}
	if sel&countedLate != 0 {
		step := b.Add(b.Bin(ir.OpAnd, y, zero), one)
		iv := cloop{name: "late", lo: zero, hi: b.Const(9), step: step, cmp: ir.OpCmpLT}.emit(b, pure(&t))
		after("late", iv, t)
	}
	if sel&countedSteps != 0 {
		iv := cloop{name: "steps.sub", lo: n, hi: zero, step: one, cmp: ir.OpCmpGT, sub: true}.emit(b, pure(&t))
		after("steps.sub", iv, t)
		iv = cloop{name: "steps.neg", lo: n, hi: one, step: b.Const(-2), cmp: ir.OpCmpGE}.emit(b, pure(&t))
		after("steps.neg", iv, t)
		iv = cloop{name: "steps.tainted", lo: zero, hi: n, step: b.Add(b.Bin(ir.OpAnd, y, zero), b.Const(2)), cmp: ir.OpCmpLT}.emit(b, pure(&t))
		after("steps.tainted", iv, t)
		iv = cloop{name: "steps.zero", lo: zero, hi: n, step: b.Bin(ir.OpAnd, z, one), cmp: ir.OpCmpLT}.emit(b, pure(&t))
		after("steps.zero", iv, t)
	}
}

// buildRecursive adds rec(d, n), which calls recb before it branches and
// then runs a loop bounded by n, and recb(d, n), which calls rec(d-1, n)
// while d > 0. The innermost rec runs its loop — and resolves the function's
// branch records — while every outer activation of rec, entered before any
// record existed, has yet to reach its own.
func (g *gen) buildRecursive() {
	b := ir.NewFunc(g.mod, "rec", 2)
	acc := b.Call("recb", b.Param(0), b.Param(1))
	b.For(b.Const(0), b.Add(b.Bin(ir.OpAnd, b.Param(1), b.Const(1)), b.Const(1)), b.Const(1), func(i ir.Reg) {
		b.MovTo(acc, b.Add(acc, i))
	})
	b.Ret(acc)
	b.Finish()

	c := ir.NewFunc(g.mod, "recb", 2)
	r := c.Const(0)
	c.If(c.CmpGT(c.Param(0), c.Const(0)), func() {
		c.MovTo(r, c.Call("rec", c.Sub(c.Param(0), c.Const(1)), c.Param(1)))
	}, nil)
	c.Ret(r)
	c.Finish()
}

func (bd *body) pick() ir.Reg {
	return bd.pool[bd.g.r.Intn(len(bd.pool))]
}

func (bd *body) push(r ir.Reg) { bd.pool = append(bd.pool, r) }

// index returns a register holding pick()&7: a always-in-bounds scratch
// index (bitwise and maps negatives into 0..7 too).
func (bd *body) index() ir.Reg {
	return bd.b.Bin(ir.OpAnd, bd.pick(), bd.b.Const(7))
}

var arithOps = []ir.Opcode{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr,
	ir.OpXor, ir.OpShl, ir.OpShr, ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT,
	ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE, ir.OpMin, ir.OpMax,
}

func (bd *body) stmt() {
	g, b := bd.g, bd.b
	nested := bd.depth < bd.g.cfg.maxDepth
	switch k := g.r.Intn(12); {
	case k <= 2: // arithmetic
		op := arithOps[g.r.Intn(len(arithOps))]
		bd.push(b.Bin(op, bd.pick(), bd.pick()))
	case k == 3: // unary / const / mov
		switch g.r.Intn(3) {
		case 0:
			bd.push(b.Neg(bd.pick()))
		case 1:
			bd.push(b.Const(int64(g.r.Intn(21) - 10)))
		default:
			bd.push(b.Mov(bd.pick()))
		}
	case k == 4: // load
		addr := b.Add(bd.arr, bd.index())
		bd.push(b.Load(addr, 0))
	case k == 5: // store
		addr := b.Add(bd.arr, bd.index())
		b.Store(addr, 0, bd.pick())
	case k == 6: // accumulate into an existing register (loop-carried)
		b.MovTo(bd.pick(), b.Add(bd.pick(), bd.pick()))
	case k == 7 && nested: // if / if-else
		cond := b.CmpLT(bd.pick(), bd.pick())
		save := len(bd.pool)
		bd.depth++
		var els func()
		if g.r.Intn(2) == 0 {
			els = func() {
				bd.stmt()
				bd.pool = bd.pool[:save]
			}
		}
		b.If(cond, func() {
			bd.stmt()
			if g.r.Intn(2) == 0 {
				bd.stmt()
			}
			bd.pool = bd.pool[:save]
		}, els)
		bd.depth--
	case k == 8 && nested: // counted loop with a (possibly tainted) bound
		bound := b.Bin(ir.OpAnd, bd.pick(), b.Const(3))
		save := len(bd.pool)
		bd.depth++
		b.For(b.Const(0), bound, b.Const(1), func(i ir.Reg) {
			bd.push(i)
			bd.stmt()
			bd.stmt()
			bd.pool = bd.pool[:save]
		})
		bd.depth--
	case k == 9 && nested: // while loop on an explicit down-counter
		cnt := b.Mov(b.Bin(ir.OpAnd, bd.pick(), b.Const(3)))
		zero := b.Const(0)
		one := b.Const(1)
		save := len(bd.pool)
		bd.depth++
		b.While(func() ir.Reg { return b.CmpGT(cnt, zero) }, func() {
			bd.stmt()
			b.MovTo(cnt, b.Sub(cnt, one))
			bd.pool = bd.pool[:save]
		})
		bd.depth--
	case k == 10 && nested: // switch over pick()&3
		v := b.Bin(ir.OpAnd, bd.pick(), b.Const(3))
		c0 := b.NewBlock("case0")
		c1 := b.NewBlock("case1")
		def := b.NewBlock("default")
		join := b.NewBlock("swjoin")
		b.Switch(v, def, []ir.SwitchCase{{Value: 0, Block: c0.Index}, {Value: 1, Block: c1.Index}})
		save := len(bd.pool)
		bd.depth++
		for _, arm := range []*ir.Block{c0, c1, def} {
			b.SetBlock(arm)
			bd.stmt()
			bd.pool = bd.pool[:save]
			if b.CurBlock() != nil {
				b.Jmp(join)
			}
		}
		bd.depth--
		b.SetBlock(join)
	case k == 11: // call: helper or library
		bd.call()
	default:
		bd.push(b.Bin(ir.OpAdd, bd.pick(), bd.pick()))
	}
}

func (bd *body) call() {
	g, b := bd.g, bd.b
	if len(g.callees) > 0 && g.r.Intn(3) > 0 {
		c := g.callees[g.r.Intn(len(g.callees))]
		args := make([]ir.Reg, c.params)
		for i := range args {
			args[i] = bd.pick()
		}
		bd.push(b.Call(c.name, args...))
		return
	}
	switch g.r.Intn(4) {
	case 0: // taint source: writes comm size (labelled p) into the array
		addr := b.Add(bd.arr, bd.index())
		bd.push(b.Call("MPI_Comm_size", b.Const(0), addr))
	case 1: // relevant p2p call; count argument may carry taint
		bd.push(b.Call("MPI_Send", bd.arr, bd.pick(), b.Const(1)))
	case 2: // collective that moves up to 4 cells inside the array
		cnt := b.Bin(ir.OpAnd, bd.pick(), b.Const(3))
		bd.push(b.Call("MPI_Allreduce", bd.arr, b.Add(bd.arr, b.Const(4)), cnt))
	default:
		bd.push(b.Call("MPI_Barrier", b.Const(0)))
	}
}

// ---- engine fingerprinting ----

// fingerprint renders every observable of a run deterministically. Labels
// are compared by their base-parameter masks — the semantic identity of a
// label — not by raw table ids: the fast engine's merged control scopes can
// materialize different intermediate labels in the shared union table, but
// every observable label (results, records) must denote the identical
// parameter set.
func fingerprint(res *interp.Result, err error, eng *taint.Engine) string {
	var sb strings.Builder
	mask := func(l taint.Label) string {
		if eng == nil {
			return fmt.Sprintf("%d", l)
		}
		return fmt.Sprintf("%x(%s)", uint64(l), eng.Table.ExpandString(l))
	}
	if err != nil {
		fmt.Fprintf(&sb, "err=%v\n", err)
	}
	if res != nil {
		fmt.Fprintf(&sb, "value=%d label=%s instr=%d\n", res.Value, mask(res.Label), res.Instructions)
	}
	if eng == nil {
		return sb.String()
	}
	fmt.Fprintf(&sb, "base=%d\n", eng.Table.NumBase())
	for _, r := range eng.SortedLoops() {
		fmt.Fprintf(&sb, "loop %s#%d@%d path=%s labels=%s iter=%d entries=%d\n",
			r.Key.Func, r.Key.LoopID, r.Header, r.Key.CallPath,
			mask(r.Labels), r.Iterations, r.Entries)
	}
	branches := make([]*taint.BranchRecord, 0, len(eng.Branches))
	for _, r := range eng.Branches {
		branches = append(branches, r)
	}
	sort.Slice(branches, func(i, j int) bool {
		if branches[i].Key.Func != branches[j].Key.Func {
			return branches[i].Key.Func < branches[j].Key.Func
		}
		return branches[i].Key.Block < branches[j].Key.Block
	})
	for _, r := range branches {
		fmt.Fprintf(&sb, "branch %s@%d labels=%s taken=%d nottaken=%d exit=%v\n",
			r.Key.Func, r.Key.Block, mask(r.Labels),
			r.Taken, r.NotTaken, r.IsLoopExit)
	}
	libs := make([]*taint.LibCallRecord, 0, len(eng.LibCalls))
	for _, r := range eng.LibCalls {
		libs = append(libs, r)
	}
	sort.Slice(libs, func(i, j int) bool {
		a, b := libs[i].Key, libs[j].Key
		if a.CallPath != b.CallPath {
			return a.CallPath < b.CallPath
		}
		return a.Callee < b.Callee
	})
	for _, r := range libs {
		fmt.Fprintf(&sb, "libcall %s->%s path=%s labels=%s count=%d\n",
			r.Key.Caller, r.Key.Callee, r.Key.CallPath,
			mask(r.Labels), r.Count)
	}
	var recs []string
	for fn := range eng.RecursionWarnings {
		recs = append(recs, fn)
	}
	sort.Strings(recs)
	fmt.Fprintf(&sb, "recursion=%v\n", recs)
	return sb.String()
}

type runOpts struct {
	mode    interp.Mode
	fuel    int64
	tainted bool
	// params overrides the tainted parameter names (default x, y, z).
	params []string
	// prog, when set, is the shared program the run executes on — and
	// borrows its memory from — instead of a machine-private one.
	prog *interp.Program
}

func runOne(t *testing.T, mod *ir.Module, args []int64, o runOpts) string {
	t.Helper()
	var eng *taint.Engine
	mach := interp.NewMachine(mod)
	mach.Mode = o.mode
	mach.Fuel = o.fuel
	mach.Prog = o.prog
	if o.tainted {
		eng = taint.NewEngine()
		mach.Taint = eng
	}
	db := libdb.DefaultMPI()
	db.Bind(mach, eng, libdb.RunConfig{CommSize: 8, Rank: 0})
	var labels []taint.Label
	if o.tainted {
		params := o.params
		if params == nil {
			params = []string{"x", "y", "z"}
		}
		for _, p := range params {
			labels = append(labels, eng.Table.Base(p))
		}
	}
	res, err := mach.Run("main", args, labels)
	return fingerprint(res, err, eng)
}

func diffModes(t *testing.T, mod *ir.Module, args []int64, fuel int64, tainted bool, params ...string) {
	t.Helper()
	diffModesOn(t, mod, nil, args, fuel, tainted, params...)
}

// diffModesOn is diffModes with the engines under test — the reference one
// among them — running on prog when it is set, each on an arena out of prog's
// pool that primeArena just put there. The oracle stays the reference engine
// on a machine and memory of its own.
func diffModesOn(t *testing.T, mod *ir.Module, prog *interp.Program, args []int64, fuel int64, tainted bool, params ...string) {
	t.Helper()
	ref := runOne(t, mod, args, runOpts{mode: interp.ModeReference, fuel: fuel, tainted: tainted, params: params})
	modes := []interp.Mode{interp.ModeFast}
	if prog != nil {
		modes = append(modes, interp.ModeReference)
	}
	for _, mode := range modes {
		if prog != nil {
			primeArena(t, mod, prog)
		}
		got := runOne(t, mod, args, runOpts{mode: mode, fuel: fuel, tainted: tainted, params: params, prog: prog})
		if ref != got {
			t.Fatalf("%v engine diverged (tainted=%v fuel=%d recycled=%v):\n--- reference ---\n%s\n--- %v ---\n%s", mode, tainted, fuel, prog != nil, ref, mode, got)
		}
	}
}

// addDirty gives mod the function the recycling harness dirties arenas with:
// dirty(n, v) allocates n cells and stores v in every one. Nothing calls it;
// it is an entry of its own, so the rest of the module, its call sites and
// its loops stay what they were.
func addDirty(mod *ir.Module) {
	b := ir.NewFunc(mod, "dirty", 2)
	a := b.Alloc(b.Param(0))
	b.For(b.Const(0), b.Param(0), b.Const(1), func(i ir.Reg) {
		b.Store(b.Add(a, i), 0, b.Param(1))
	})
	b.Ret(b.Load(a, 0))
	b.Finish()
}

// primeArena leaves in prog's pool an arena used the way a sweep uses one: by
// a large-heap run, dirty(2048, 7) with a labelled 7 in every cell the
// scratch arrays of some 250 activations will occupy, then by a small one,
// dirty(4, 7), then by main itself at the arguments that drive the generated
// loops furthest. The generated functions read their scratch arrays before
// they have written all of them, so a cell or label left behind shows.
func primeArena(t *testing.T, mod *ir.Module, prog *interp.Program) {
	t.Helper()
	for _, run := range []struct {
		entry string
		args  []int64
	}{{"dirty", []int64{2048, 7}}, {"dirty", []int64{4, 7}}, {"main", []int64{15, 15, 15}}} {
		eng := taint.NewEngine()
		mach := interp.NewMachine(mod)
		mach.Prog, mach.Taint, mach.Fuel = prog, eng, 20_000
		libdb.DefaultMPI().Bind(mach, eng, libdb.RunConfig{CommSize: 8, Rank: 0})
		labels := []taint.Label{eng.Table.Base("x"), eng.Table.Base("y"), eng.Table.Base("z")}
		if _, err := mach.Run(run.entry, run.args, labels[:len(run.args)]); err != nil && !errors.Is(err, interp.ErrFuel) {
			t.Fatalf("priming run %s%v: %v", run.entry, run.args, err)
		}
	}
}

// instructionsOf reruns main in reference mode and returns the executed
// instruction count, to derive truncation points for the fuel differential.
func instructionsOf(t *testing.T, mod *ir.Module, args []int64) int64 {
	t.Helper()
	mach := interp.NewMachine(mod)
	mach.Mode = interp.ModeReference
	libdb.DefaultMPI().Bind(mach, nil, libdb.RunConfig{CommSize: 8})
	res, err := mach.Run("main", args, nil)
	if err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	return res.Instructions
}

// summarizedBy runs main on the fast engine and returns how many instructions
// it charged without dispatching them.
func summarizedBy(t *testing.T, mod *ir.Module, args []int64, tainted bool) int64 {
	t.Helper()
	mach := interp.NewMachine(mod)
	var eng *taint.Engine
	var labels []taint.Label
	if tainted {
		eng = taint.NewEngine()
		mach.Taint = eng
		labels = []taint.Label{eng.Table.Base("x"), eng.Table.Base("y"), eng.Table.Base("z")}
	}
	libdb.DefaultMPI().Bind(mach, eng, libdb.RunConfig{CommSize: 8})
	res, err := mach.Run("main", args, labels)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	return res.Summarized
}

// verifyGenerated fails the test unless mod verifies against the MPI
// library database.
func verifyGenerated(t *testing.T, mod *ir.Module) {
	t.Helper()
	db := libdb.DefaultMPI()
	if err := ir.VerifyModule(mod, func(name string) bool {
		_, ok := db.Lookup(name)
		return ok
	}); err != nil {
		t.Fatalf("generator produced invalid module: %v", err)
	}
}

// TestDifferentialFastMatchesReference executes >=50 seeded random modules
// under both engines — tainted and untainted, full-fuel and truncated — and
// requires identical observables.
func TestDifferentialFastMatchesReference(t *testing.T) {
	shapes := []genConfig{
		{funcs: 0, stmts: 6, maxDepth: 2},
		{funcs: 2, stmts: 5, maxDepth: 2},
		{funcs: 3, stmts: 7, maxDepth: 3},
		{funcs: 4, stmts: 4, maxDepth: 2},
	}
	const seeds = 56
	for seed := int64(0); seed < seeds; seed++ {
		cfg := shapes[int(seed)%len(shapes)]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mod := genModule(seed*7919+13, cfg)
			verifyGenerated(t, mod)
			args := []int64{seed % 9, (seed % 5) - 2, seed % 3}
			diffModes(t, mod, args, 1_000_000, true)
			diffModes(t, mod, args, 1_000_000, false)
			// Truncated-fuel differential: both engines must fail with
			// ErrFuel at the same point and report identical partial
			// instruction counts.
			if n := instructionsOf(t, mod, args); n > 4 {
				diffModes(t, mod, args, n/2, true)
				diffModes(t, mod, args, n-1, false)
			}
		})
	}
}

// TestDifferentialSummarizedLeaves runs seeded modules whose functions call
// straight-line leaves — the callees the fast engine executes as call
// summaries — inside tainted loops and branches. Each module must actually
// carry summaries (and keep at least main out of them), and the engines
// must agree at full fuel and at budgets that end before, inside and right
// after summarized calls.
func TestDifferentialSummarizedLeaves(t *testing.T) {
	shapes := []genConfig{
		{funcs: 0, stmts: 3, maxDepth: 1, leaves: 7},
		{funcs: 2, stmts: 5, maxDepth: 2, leaves: 3},
		{funcs: 3, stmts: 4, maxDepth: 2, leaves: 9},
		{funcs: 1, stmts: 6, maxDepth: 3, leaves: 1},
	}
	summarized := 0
	for seed := int64(0); seed < 32; seed++ {
		cfg := shapes[int(seed)%len(shapes)]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mod := genModule(seed*104723+5, cfg)
			verifyGenerated(t, mod)
			prog := interp.Predecode(mod)
			if n := prog.NumSummarized(); n >= prog.NumFuncs() {
				t.Fatalf("%d of %d functions summarized: main allocates and must not be", n, prog.NumFuncs())
			} else if n > 0 {
				summarized++
			}
			args := []int64{3 + seed%5, (seed % 7) - 3, seed % 4}
			diffModes(t, mod, args, 1_000_000, true)
			diffModes(t, mod, args, 1_000_000, false)
			n := instructionsOf(t, mod, args)
			for _, fuel := range []int64{n - 1, n - 2, n - 3, n / 2, n/2 + 1, n / 3, n / 5} {
				if fuel > 0 {
					diffModes(t, mod, args, fuel, true)
					diffModes(t, mod, args, fuel, false)
				}
			}
		})
	}
	// Only the one-leaf shape can come out without a summarizable leaf.
	if summarized < 24 {
		t.Fatalf("only %d of 32 modules carried a summarized function", summarized)
	}
}

// TestDifferentialScopeShapes runs every combination of the control-scope
// shapes on top of seeded random modules: each module must reach the paths
// its shapes are named for, and the engines must agree at full fuel and at
// budgets that end inside the shapes.
func TestDifferentialScopeShapes(t *testing.T) {
	for sel := uint8(1); sel < 16; sel++ {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("shapes%x/seed%d", sel, seed), func(t *testing.T) {
				cfg := genConfig{funcs: int(seed) * 2, stmts: 3 + int(seed), maxDepth: 2, leaves: int(seed) * 3, scopes: sel}
				mod := genModule(seed*6151+int64(sel), cfg)
				verifyGenerated(t, mod)
				requireScopePaths(t, mod, sel)
				args := []int64{2 + seed, 3 - seed, int64(sel)}
				diffModes(t, mod, args, 1_000_000, true)
				diffModes(t, mod, args, 1_000_000, false)
				n := instructionsOf(t, mod, args)
				for _, fuel := range []int64{n - 1, n - 7, n - 40, n / 2, n / 3} {
					if fuel > 0 {
						diffModes(t, mod, args, fuel, true)
					}
				}
			})
		}
	}
}

// requireScopePaths fails the test unless the shapes selected in mod reach
// the scope-stack paths they exist for: shown by the label the reference
// engine hands a shape's probe loop where the path decides a label, and by
// the module's structure where it does not.
func requireScopePaths(t *testing.T, mod *ir.Module, sel uint8) {
	t.Helper()
	if sel == 0 {
		return
	}
	main := mod.Funcs["main"]
	blockOf := func(name string) int {
		for _, blk := range main.Blocks {
			if blk.Name == name {
				return blk.Index
			}
		}
		t.Fatalf("main has no block %q", name)
		return -1
	}
	eng := taint.NewEngine()
	mach := interp.NewMachine(mod)
	mach.Mode = interp.ModeReference
	mach.Taint = eng
	libdb.DefaultMPI().Bind(mach, eng, libdb.RunConfig{CommSize: 8})
	labels := []taint.Label{eng.Table.Base("x"), eng.Table.Base("y"), eng.Table.Base("z")}
	// The scope shapes open main; whether the rest of it finishes within the
	// budget (a counted shape may spin) does not matter to their records.
	mach.Fuel = 20_000
	if _, err := mach.Run("main", []int64{5, 3, 2}, labels); err != nil && !errors.Is(err, interp.ErrFuel) {
		t.Fatalf("reference run: %v", err)
	}
	probeLabel := func(header string) string {
		h := blockOf(header)
		for _, r := range eng.SortedLoops() {
			if r.Key.Func == "main" && r.Header == h {
				return eng.Table.ExpandString(r.Labels)
			}
		}
		t.Fatalf("no loop record for probe %q", header)
		return ""
	}
	if sel&scopeStraddle != 0 {
		// x would mean t counts as carried by the outer loop too, nothing
		// that it is carried by neither: y alone is the straddle.
		if got := probeLabel("straddle"); got != "y" {
			t.Fatalf("straddle probe is labelled %q, want y", got)
		}
	}
	if sel&scopeCollide != 0 {
		if j, end := blockOf("collide.join"), blockOf("collide"); j+64 >= end {
			t.Fatalf("no block 64 past the join (%d) inside the scope ending at %d", j, end)
		}
		if got := probeLabel("collide"); got != "z" {
			t.Fatalf("collide probe is labelled %q, want z", got)
		}
	}
	if sel&scopeTwoExit != 0 {
		if n := len(cfg.FindLoops(cfg.Build(main)).ExitLoops(blockOf("twoexit"))); n != 2 {
			t.Fatalf("block twoexit leaves %d loops, want 2", n)
		}
	}
	if sel&scopeRecurse != 0 && !eng.RecursionWarnings["rec"] {
		t.Fatal("rec never ran recursively")
	}
}

// requireCountedSummaries fails the test unless the loops of the counted
// shapes selected in mod carry a loop summary exactly where
// countedSummaries says.
func requireCountedSummaries(t *testing.T, mod *ir.Module, sel uint8) {
	t.Helper()
	prog := interp.Predecode(mod)
	for bit, loops := range countedSummaries {
		if sel&bit == 0 {
			continue
		}
		for name, want := range loops {
			header := -1
			for _, blk := range mod.Funcs["main"].Blocks {
				if blk.Name == name {
					header = blk.Index
				}
			}
			if header < 0 {
				t.Fatalf("main has no block %q", name)
			}
			if got := prog.LoopSummarized("main", header); got != want {
				t.Fatalf("loop %q: summarized = %v, want %v", name, got, want)
			}
		}
	}
}

// TestDifferentialCountedLoops runs every counted-loop shape, alone and all
// together, on top of seeded random modules: predecode must summarize exactly
// the loops the shapes say it may, and the engines must agree whether a
// summary fires (trip counts past the warm-up), cannot (0 to 3 iterations, a
// zero step), or would cross the budget (fuel values that end inside the
// skipped iterations, in the last one and at the exit test).
func TestDifferentialCountedLoops(t *testing.T) {
	sels := []uint8{0xff}
	for bit := uint8(1); bit != 0; bit <<= 1 {
		sels = append(sels, bit)
	}
	for _, sel := range sels {
		for seed := int64(0); seed < 2; seed++ {
			t.Run(fmt.Sprintf("shapes%02x/seed%d", sel, seed), func(t *testing.T) {
				cfg := genConfig{funcs: int(seed) * 2, stmts: 2 + int(seed), maxDepth: 2, leaves: int(seed) * 2, counted: sel}
				mod := genModule(seed*7451+int64(sel), cfg)
				verifyGenerated(t, mod)
				requireCountedSummaries(t, mod, sel)
				if seed == 0 && sel&(countedBound|countedCarried) == 0 {
					// No leaves, no helpers: whatever the fast engine charges
					// without dispatching, a loop summary charged.
					for _, tainted := range []bool{true, false} {
						if got := summarizedBy(t, mod, []int64{12, 14, 1}, tainted); got == 0 {
							t.Fatalf("tainted=%v: no loop summary fired", tainted)
						}
					}
				}
				// x sets the trip counts; an even z makes steps.zero spin
				// until the fuel ends it.
				for _, args := range [][]int64{{0, 3, 1}, {1, -2, 3}, {2, 5, 1}, {3, 0, 5}, {5, 9, 1}, {6, -7, 7}, {12, 4, 1}, {-1, 11, 3}, {9, 6, 2}} {
					fuel := int64(1_000_000)
					if sel&countedSteps != 0 && args[2]%2 == 0 {
						fuel = 30_000
					}
					diffModes(t, mod, args, fuel, true)
					diffModes(t, mod, args, fuel, false)
					if fuel != 1_000_000 {
						continue
					}
					n := instructionsOf(t, mod, args)
					for _, cut := range []int64{n - 1, n - 2, n - 5, n - 9, n - 14, n - 23, n / 2, n/2 + 3, n / 3, n / 5} {
						if cut > 0 {
							diffModes(t, mod, args, cut, true)
							diffModes(t, mod, args, cut, false)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialSnapshotPerActivation pins that the label snapshot behind
// the loop summaries (see Machine.settledAt) belongs to one activation. main
// runs a summarized loop for exactly two iterations, which leaves a snapshot
// nobody consumed, and then calls f, whose own first loop has the same index,
// the same register shape and — at the right amount of padding in front of it
// — a first header test exactly one iteration's writes after that snapshot,
// on labels that equal it. Taking main's snapshot for f's would skip f's
// iterations before the body's temporary was ever born, and the temporary
// would miss the exit test's label it returns with.
func TestDifferentialSnapshotPerActivation(t *testing.T) {
	for pad := 0; pad < 24; pad++ {
		mod := ir.NewModule("alias")
		loop := func(b *ir.Builder, lo, hi ir.Reg) ir.Reg {
			one := b.Const(1)
			var tmp ir.Reg
			cloop{name: "loop", lo: lo, hi: hi, step: one, cmp: ir.OpCmpLT}.emit(b, func(ir.Reg) {
				tmp = b.Add(one, one)
				b.Work(tmp)
			})
			return tmp
		}
		// labelled is the constant c under the label of p.
		labelled := func(b *ir.Builder, p ir.Reg, c int64) ir.Reg {
			return b.Add(b.Bin(ir.OpAnd, p, b.Const(0)), b.Const(c))
		}
		f := ir.NewFunc(mod, "f", 1)
		for range pad {
			f.Const(0)
		}
		f.Ret(loop(f, labelled(f, f.Param(0), 0), labelled(f, f.Param(0), 9)))
		f.Finish()
		b := ir.NewFunc(mod, "main", 3)
		loop(b, b.Const(0), labelled(b, b.Param(0), 2))
		b.Ret(b.Call("f", b.Param(0)))
		b.Finish()
		verifyGenerated(t, mod)
		if prog := interp.Predecode(mod); prog.NumLoopSummaries() != 2 {
			t.Fatalf("%d loop summaries, want main's and f's", prog.NumLoopSummaries())
		}
		diffModes(t, mod, []int64{5, 3, 2}, 1_000_000, true)
		diffModes(t, mod, []int64{5, 3, 2}, 1_000_000, false)
	}
}

// TestDifferentialEntryBlockLoop runs a loop headed by its function's entry
// block: no edge enters it from outside, so the first event its record sees
// is the exit test itself, not a loop entry.
func TestDifferentialEntryBlockLoop(t *testing.T) {
	mod := ir.NewModule("entryloop")
	h := ir.NewFunc(mod, "countdown", 1)
	header := h.CurBlock()
	loop, exit := h.NewBlock("loop"), h.NewBlock("exit")
	h.Br(h.Param(0), loop, exit)
	h.SetBlock(loop)
	h.MovTo(h.Param(0), h.Sub(h.Param(0), h.Const(1)))
	h.Jmp(header)
	h.SetBlock(exit)
	h.Ret(h.Param(0))
	h.Finish()
	b := ir.NewFunc(mod, "main", 3)
	b.Ret(b.Add(b.Call("countdown", b.Bin(ir.OpAnd, b.Param(0), b.Const(3))), b.Call("countdown", b.Param(2))))
	b.Finish()
	verifyGenerated(t, mod)
	args := []int64{7, 0, 2}
	diffModes(t, mod, args, 1_000_000, true)
	diffModes(t, mod, args, 1_000_000, false)
	for fuel := int64(1); fuel < instructionsOf(t, mod, args); fuel++ {
		diffModes(t, mod, args, fuel, true)
	}
}

// ---- deep union chains over a wide parameter set ----

// genDeepModule builds a seeded module whose main takes nparams tainted
// parameters and funnels all of them through long union chains: running
// accumulators, store/load round trips through a scratch array, helper
// calls that union their arguments, and loops whose (tainted) bounds sink
// the accumulated masks into loop records. With the mask-native labels
// every step of the chain is a single OR; the reference engine must agree
// on every observable at every depth of the chain.
func genDeepModule(seed int64, nparams int) *ir.Module {
	r := rand.New(rand.NewSource(seed*104729 + 7))
	mod := ir.NewModule(fmt.Sprintf("deep%d", seed))

	// mix2(a, b): a+b via a store/load round trip (heap-carried union).
	hb := ir.NewFunc(mod, "mix2", 2)
	harr := hb.Alloc(hb.Const(2))
	hb.Store(harr, 0, hb.Add(hb.Param(0), hb.Param(1)))
	hb.Ret(hb.Load(harr, 0))
	hb.Finish()

	// fold3(a, b, c): unions b and c into a across a counted loop whose
	// bound is tainted by b (loop-exit sink of a partial chain).
	fb := ir.NewFunc(mod, "fold3", 3)
	facc := fb.Mov(fb.Param(0))
	fb.For(fb.Const(0), fb.Bin(ir.OpAnd, fb.Param(1), fb.Const(3)), fb.Const(1), func(i ir.Reg) {
		fb.MovTo(facc, fb.Add(facc, fb.Param(2)))
		fb.MovTo(facc, fb.Add(facc, i))
	})
	fb.Ret(facc)
	fb.Finish()

	b := ir.NewFunc(mod, "main", nparams)
	arr := b.Alloc(b.Const(int64(nparams)))
	for i := 0; i < nparams; i++ {
		b.Store(arr, int64(i), b.Param(i))
	}
	acc := b.Mov(b.Param(0))
	for i := 1; i < nparams; i++ {
		p := b.Param(i)
		switch r.Intn(4) {
		case 0:
			b.MovTo(acc, b.Call("mix2", acc, p))
		case 1:
			idx := b.Bin(ir.OpAnd, p, b.Const(int64(nparams-1)))
			b.MovTo(acc, b.Call("fold3", acc, p, b.Load(b.Add(arr, idx), 0)))
		case 2:
			// Cycle the chain through memory: store the accumulator over a
			// parameter slot, read a different slot back in.
			b.Store(arr, int64(i%nparams), acc)
			b.MovTo(acc, b.Add(acc, b.Load(b.Add(arr, b.Const(int64((i*3)%nparams))), 0)))
		default:
			b.MovTo(acc, b.Add(acc, p))
		}
		if r.Intn(3) == 0 {
			// A loop whose bound carries the whole chain so far: the exit
			// condition sinks a wide mask, and the body keeps growing it.
			b.For(b.Const(0), b.Bin(ir.OpAnd, acc, b.Const(3)), b.Const(1), func(j ir.Reg) {
				b.MovTo(acc, b.Add(acc, j))
				b.Store(arr, 0, acc)
			})
		}
	}
	// Library interaction: a taint source plus a send whose count carries
	// the full chain.
	b.Store(arr, 0, b.Call("MPI_Comm_size", b.Const(0), arr))
	b.MovTo(acc, b.Add(acc, b.Load(arr, 0)))
	b.Call("MPI_Send", arr, acc, b.Const(1))
	b.Ret(acc)
	b.Finish()
	return mod
}

// TestDifferentialDeepUnionChains exercises union chains that accumulate up
// to twelve base labels (plus the implicit p) through registers, the shadow
// heap, call arguments, and loop sinks, under both engines, full-fuel and
// truncated.
func TestDifferentialDeepUnionChains(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		nparams := 8 + int(seed%5)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mod := genDeepModule(seed, nparams)
			verifyGenerated(t, mod)
			params := make([]string, nparams)
			args := make([]int64, nparams)
			for i := range params {
				params[i] = fmt.Sprintf("q%02d", i)
				args[i] = int64((seed+int64(i*5))%11) - 3
			}
			diffModes(t, mod, args, 1_000_000, true, params...)
			diffModes(t, mod, args, 1_000_000, false, params...)
			if n := instructionsOf(t, mod, args); n > 4 {
				diffModes(t, mod, args, n/2, true, params...)
			}
		})
	}
}
