// Package scev is a miniature ScalarEvolution stand-in (Section 5.1). Its one
// classification is the counted loop: a natural loop whose single exit is the
// header's ordered compare of a basic induction register against a
// loop-invariant bound, so that its trip count is a closed form (Trips) of
// three registers live at the preheader. The fast interpreter evaluates that
// closed form at run time to skip provably identical iterations; when all
// three registers are compile-time constants the closed form is a number, and
// functions containing only such loops can be pruned from instrumentation
// before any dynamic analysis runs.
package scev

import (
	"math"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// TripCount classifies a loop's statically derived iteration count.
type TripCount struct {
	// Constant is true when every exit condition compares a basic induction
	// register (constant init, constant step) against a constant bound, or
	// constants against constants.
	Constant bool
	// Count is the resolved iteration count when the loop is Constant and
	// Counted and Trips can tell; -1 otherwise.
	Count int64
	// Counted is the loop's closed form, nil when the loop is not counted.
	Counted *Counted
}

// Counted is the closed form of a counted loop. The header tests
// `IV Cmp Bound` before every iteration and is the loop's only exit; the
// loop's only latch adds Step to IV (subtracts it, when Sub) and nothing else
// in the loop writes IV, Bound or Step. Entered with values iv, bound and
// step in the three registers the loop therefore runs exactly
// Trips(Cmp, iv, bound, ±step) iterations, when Trips can tell.
type Counted struct {
	IV, Bound, Step ir.Reg
	// Cmp is one of the four ordered compares, normalised so that the loop
	// continues while it holds with IV on the left.
	Cmp ir.Opcode
	Sub bool
}

// Trips returns how many iterations `for i := init; i cmp bound; i += step`
// runs under the interpreter's wrapping 64-bit arithmetic, for cmp one of the
// four ordered compares and a step of either sign. ok is false when no number
// is right: the loop leaves only after i wraps around (a zero step, a step
// pointing away from the bound, an exit value beyond the end of the range), or
// the count itself exceeds an int64.
func Trips(cmp ir.Opcode, init, bound, step int64) (n int64, ok bool) {
	// mag is how far i moves toward the bound per iteration. The descending
	// compares are mirrored onto the ascending ones by complement, which
	// reverses the order of int64 without overflowing.
	var mag uint64
	toward := step > 0
	switch cmp {
	case ir.OpCmpLT, ir.OpCmpLE:
		mag = uint64(step)
	case ir.OpCmpGT, ir.OpCmpGE:
		init, bound, mag, toward = ^init, ^bound, -uint64(step), step < 0
	default:
		return 0, false
	}
	strict := cmp == ir.OpCmpLT || cmp == ir.OpCmpGT
	if init > bound || strict && init == bound {
		return 0, true
	}
	if !toward {
		return 0, false
	}
	// d is the distance the test tolerates: it holds at init + k*mag for
	// every k with k*mag <= d.
	d := uint64(bound) - uint64(init)
	if strict {
		d--
	}
	q := d / mag
	if q >= math.MaxInt64 {
		return 0, false
	}
	// The exit test must see a value past the bound, not one wrapped around.
	last := init + int64(q*mag)
	if mag > uint64(math.MaxInt64)-uint64(last) {
		return 0, false
	}
	return int64(q) + 1, true
}

// FuncClass is the static classification of one function.
type FuncClass struct {
	Name string
	// Loops maps loop ID to its trip-count classification.
	Loops map[int]TripCount
	// AllConstant is true when the function has no loops or only loops with
	// constant trip counts: its performance model is parameter-independent
	// unless a relevant library call is present.
	AllConstant bool
	// CallsRelevantLibrary is true when the function directly calls a
	// function the library database marks performance-relevant (e.g. MPI).
	CallsRelevantLibrary bool
	// Pruned is AllConstant && !CallsRelevantLibrary: the static prune set.
	Pruned bool
	// NumLoops is the total natural loop count.
	NumLoops int
	// ConstLoops is the number of loops with constant trip counts.
	ConstLoops int
}

// regFacts holds per-register def information within one function.
type regFacts struct {
	// constVal[r] is set when all defs of r are OpConst with the same value.
	constVal map[ir.Reg]int64
	// defs[r] lists (block, instr index) of all definitions of r.
	defs map[ir.Reg][][2]int
}

func collectFacts(f *ir.Function) *regFacts {
	rf := &regFacts{constVal: make(map[ir.Reg]int64), defs: make(map[ir.Reg][][2]int)}
	type def struct {
		op  ir.Opcode
		imm int64
	}
	single := make(map[ir.Reg][]def)
	for bi, blk := range f.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.Dst == ir.NoReg || in.Op.IsTerm() || in.Op == ir.OpStore || in.Op == ir.OpWork {
				continue
			}
			rf.defs[in.Dst] = append(rf.defs[in.Dst], [2]int{bi, ii})
			single[in.Dst] = append(single[in.Dst], def{in.Op, in.Imm})
		}
	}
	// Seed: registers whose every def is the same OpConst.
	for r, ds := range single {
		allConst := true
		var v int64
		for i, d := range ds {
			if d.op != ir.OpConst || (i > 0 && d.imm != v) {
				allConst = false
				break
			}
			v = d.imm
		}
		if allConst && len(ds) > 0 {
			rf.constVal[r] = v
		}
	}
	// Propagate through pure ops whose operands are constant. Iterate to a
	// fixed point; the register graph is tiny per function.
	changed := true
	for changed {
		changed = false
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Dst == ir.NoReg || in.Op.IsTerm() {
					continue
				}
				if _, done := rf.constVal[in.Dst]; done {
					continue
				}
				if len(rf.defs[in.Dst]) != 1 {
					continue
				}
				switch in.Op {
				case ir.OpMov, ir.OpNeg, ir.OpNot:
					if v, ok := rf.constVal[in.A]; ok {
						rf.constVal[in.Dst] = evalUnary(in.Op, v)
						changed = true
					}
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd,
					ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpMin, ir.OpMax:
					va, oka := rf.constVal[in.A]
					vb, okb := rf.constVal[in.B]
					if oka && okb {
						rf.constVal[in.Dst] = evalBinary(in.Op, va, vb)
						changed = true
					}
				}
			}
		}
	}
	return rf
}

func evalUnary(op ir.Opcode, a int64) int64 {
	switch op {
	case ir.OpMov:
		return a
	case ir.OpNeg:
		return -a
	case ir.OpNot:
		if a == 0 {
			return 1
		}
		return 0
	}
	return 0
}

func evalBinary(op ir.Opcode, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		if b < 0 || b > 63 {
			return 0
		}
		return a << uint(b)
	case ir.OpShr:
		if b < 0 || b > 63 {
			return 0
		}
		return a >> uint(b)
	case ir.OpMin:
		if a < b {
			return a
		}
		return b
	case ir.OpMax:
		if a > b {
			return a
		}
		return b
	}
	return 0
}

// induction describes a basic induction register of a loop: the register a
// single instruction of the loop's only latch steps by ±step, once per
// iteration, with no other write to it or to step anywhere in the loop.
type induction struct {
	step ir.Reg
	sub  bool
}

// writtenIn reports whether any instruction of l writes r.
func (rf *regFacts) writtenIn(l *cfg.Loop, r ir.Reg) bool {
	for _, d := range rf.defs[r] {
		if l.Contains(d[0]) {
			return true
		}
	}
	return false
}

// basicInduction recognises r as a basic induction register of l. The update
// is `r = r ± step` or the builder's `t = r ± step; r = t` (t written nowhere
// else), in the one latch of l, which must run once per iteration: it is not
// the header (whose test would then see the stepped value first) and belongs
// to no nested loop.
func basicInduction(f *ir.Function, l *cfg.Loop, rf *regFacts, r ir.Reg) (induction, bool) {
	if len(l.Latches) != 1 || l.Latches[0] == l.Header {
		return induction{}, false
	}
	latch := l.Latches[0]
	for _, c := range l.Children {
		if c.Contains(latch) {
			return induction{}, false
		}
	}
	upd := -1
	for _, d := range rf.defs[r] {
		if !l.Contains(d[0]) {
			continue
		}
		if upd >= 0 || d[0] != latch {
			return induction{}, false
		}
		upd = d[1]
	}
	if upd < 0 {
		return induction{}, false
	}
	in := &f.Blocks[latch].Instrs[upd]
	if in.Op == ir.OpMov {
		ds := rf.defs[in.A]
		if len(ds) != 1 || ds[0][0] != latch || ds[0][1] >= upd {
			return induction{}, false
		}
		in = &f.Blocks[latch].Instrs[ds[0][1]]
	}
	var ind induction
	switch {
	case in.Op == ir.OpAdd && in.A == r:
		ind.step = in.B
	case in.Op == ir.OpAdd && in.B == r:
		ind.step = in.A
	case in.Op == ir.OpSub && in.A == r:
		ind.step, ind.sub = in.B, true
	default:
		return induction{}, false
	}
	if ind.step == r || rf.writtenIn(l, ind.step) {
		return induction{}, false
	}
	return ind, true
}

// initOf returns the constant r holds on entry to l: its one definition
// outside the loop is a constant or a copy of one.
func (rf *regFacts) initOf(f *ir.Function, l *cfg.Loop, r ir.Reg) (int64, bool) {
	var init int64
	seen := false
	for _, d := range rf.defs[r] {
		if l.Contains(d[0]) {
			continue
		}
		if seen {
			return 0, false
		}
		seen = true
		switch in := &f.Blocks[d[0]].Instrs[d[1]]; in.Op {
		case ir.OpConst:
			init = in.Imm
		case ir.OpMov:
			v, ok := rf.constVal[in.A]
			if !ok {
				return 0, false
			}
			init = v
		default:
			return 0, false
		}
	}
	return init, seen
}

// constInduction reports whether r is a basic induction register of l with a
// constant initial value and a constant non-zero step, and returns both.
func constInduction(f *ir.Function, l *cfg.Loop, rf *regFacts, r ir.Reg) (init, step int64, ok bool) {
	ind, ok := basicInduction(f, l, rf, r)
	if !ok {
		return 0, 0, false
	}
	step, ok = rf.constVal[ind.step]
	if !ok || step == 0 {
		return 0, 0, false
	}
	if ind.sub {
		step = -step
	}
	init, ok = rf.initOf(f, l, r)
	return init, step, ok
}

// orderedCompare reports whether op is one of the four ordered compares.
func orderedCompare(op ir.Opcode) bool { return op >= ir.OpCmpLT && op <= ir.OpCmpGE }

// negated and swapped give, indexed by op - ir.OpCmpLT, the ordered compare
// that holds exactly when op does not, and the one that holds with the
// operands exchanged.
var (
	negated = [4]ir.Opcode{ir.OpCmpGE, ir.OpCmpGT, ir.OpCmpLE, ir.OpCmpLT}
	swapped = [4]ir.Opcode{ir.OpCmpGT, ir.OpCmpGE, ir.OpCmpLT, ir.OpCmpLE}
)

// countedForm returns the closed form of l, nil when l is not counted.
func countedForm(f *ir.Function, l *cfg.Loop, rf *regFacts) *Counted {
	if len(l.ExitBranches) != 1 || l.ExitBranches[0].Block != l.Header {
		return nil
	}
	t := f.Blocks[l.Header].Term()
	if t.Op != ir.OpBr {
		return nil
	}
	cond := findDef(f, l.Header, t.A)
	if cond == nil || !orderedCompare(cond.Op) {
		return nil
	}
	op := cond.Op
	if !l.Contains(t.Blk0) {
		op = negated[op-ir.OpCmpLT] // the loop continues on the false edge
	}
	// The induction register may stand on either side of the compare.
	iv, bound := cond.A, cond.B
	ind, ok := basicInduction(f, l, rf, iv)
	if !ok {
		iv, bound, op = bound, iv, swapped[op-ir.OpCmpLT]
		ind, ok = basicInduction(f, l, rf, iv)
	}
	if !ok || bound == iv || rf.writtenIn(l, bound) {
		return nil
	}
	return &Counted{IV: iv, Bound: bound, Step: ind.step, Cmp: op, Sub: ind.sub}
}

// AnalyzeLoop derives the trip-count classification for one loop.
func AnalyzeLoop(f *ir.Function, l *cfg.Loop, rf *regFacts) TripCount {
	tc := TripCount{Counted: countedForm(f, l, rf)}
	if len(l.ExitBranches) == 0 {
		return tc
	}
	for _, e := range l.ExitBranches {
		t := f.Blocks[e.Block].Term()
		if t.Op != ir.OpBr {
			return tc
		}
		// The condition must be a comparison defined in the same block.
		cond := findDef(f, e.Block, t.A)
		if cond == nil || !orderedCompare(cond.Op) && cond.Op != ir.OpCmpNE && cond.Op != ir.OpCmpEQ {
			return tc
		}
		_, aConst := rf.constVal[cond.A]
		_, bConst := rf.constVal[cond.B]
		ok := aConst && bConst // degenerate but constant
		if aConst != bConst {
			r := cond.A
			if aConst {
				r = cond.B
			}
			_, _, ok = constInduction(f, l, rf, r)
		}
		if !ok {
			return tc
		}
	}
	tc.Constant, tc.Count = true, -1
	if c := tc.Counted; c != nil {
		init, step, okI := constInduction(f, l, rf, c.IV)
		bound, okB := rf.constVal[c.Bound]
		if okI && okB {
			if n, ok := Trips(c.Cmp, init, bound, step); ok {
				tc.Count = n
			}
		}
	}
	return tc
}

func findDef(f *ir.Function, block int, r ir.Reg) *ir.Instr {
	blk := f.Blocks[block]
	for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
		in := &blk.Instrs[ii]
		if in.Dst == r && !in.Op.IsTerm() {
			return in
		}
	}
	return nil
}

// AnalyzeFunc classifies all loops of f. relevantCall reports whether a
// callee name belongs to the performance-relevant library set.
func AnalyzeFunc(f *ir.Function, relevantCall func(string) bool) *FuncClass {
	return analyzeForest(cfg.FindLoops(cfg.Build(f)), relevantCall)
}

func analyzeForest(forest *cfg.Forest, relevantCall func(string) bool) *FuncClass {
	f := forest.Fn
	rf := collectFacts(f)
	fc := &FuncClass{
		Name:     f.Name,
		Loops:    make(map[int]TripCount),
		NumLoops: len(forest.Loops),
	}
	fc.AllConstant = true
	for _, l := range forest.Loops {
		tc := AnalyzeLoop(f, l, rf)
		fc.Loops[l.ID] = tc
		if tc.Constant {
			fc.ConstLoops++
		} else {
			fc.AllConstant = false
		}
	}
	if relevantCall != nil {
		for _, blk := range f.Blocks {
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				if in.Op == ir.OpCall && relevantCall(in.Sym) {
					fc.CallsRelevantLibrary = true
				}
			}
		}
	}
	fc.Pruned = fc.AllConstant && !fc.CallsRelevantLibrary
	return fc
}

// AnalyzeForests classifies every function of a module from its loop
// forests (cfg.ModuleForests); the forests are only read.
func AnalyzeForests(forests []*cfg.Forest, relevantCall func(string) bool) map[string]*FuncClass {
	out := make(map[string]*FuncClass, len(forests))
	for _, forest := range forests {
		out[forest.Fn.Name] = analyzeForest(forest, relevantCall)
	}
	return out
}
