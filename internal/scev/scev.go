// Package scev is a miniature ScalarEvolution stand-in (Section 5.1): it
// classifies natural loops whose trip counts are constant and statically
// resolvable, so that functions containing only such loops can be pruned
// from instrumentation before any dynamic analysis runs.
package scev

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// TripCount classifies a loop's statically derived iteration count.
type TripCount struct {
	// Constant is true when every exit condition compares a basic induction
	// variable (constant init, constant step) against a constant bound, or
	// constants against constants.
	Constant bool
	// Count is the resolved iteration count when Constant and the exit is
	// the canonical i < bound form; -1 when constant but unresolved.
	Count int64
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

// inductionInfo describes a basic induction variable of a loop: constant
// initial value outside the loop and constant additive step inside it.
type inductionInfo struct {
	init int64
	step int64
	ok   bool
}

func classifyInduction(f *ir.Function, l *cfg.Loop, rf *regFacts, r ir.Reg) inductionInfo {
	var info inductionInfo
	var sawInit, sawStep bool
	for _, d := range rf.defs[r] {
		blk, ii := d[0], d[1]
		in := &f.Blocks[blk].Instrs[ii]
		inside := l.Contains(blk)
		if !inside {
			// Initialization: Mov from constant or a Const.
			switch in.Op {
			case ir.OpConst:
				info.init = in.Imm
			case ir.OpMov:
				v, ok := rf.constVal[in.A]
				if !ok {
					return inductionInfo{}
				}
				info.init = v
			default:
				return inductionInfo{}
			}
			if sawInit {
				return inductionInfo{} // multiple inits: give up
			}
			sawInit = true
			continue
		}
		// Inside the loop only the canonical update is allowed:
		// Mov r, t where t = Add/Sub(r, constStep).
		if in.Op != ir.OpMov {
			return inductionInfo{}
		}
		src := in.A
		if len(rf.defs[src]) != 1 {
			return inductionInfo{}
		}
		sd := rf.defs[src][0]
		sin := &f.Blocks[sd[0]].Instrs[sd[1]]
		if sin.Op != ir.OpAdd && sin.Op != ir.OpSub {
			return inductionInfo{}
		}
		var stepReg ir.Reg
		switch {
		case sin.A == r:
			stepReg = sin.B
		case sin.B == r && sin.Op == ir.OpAdd:
			stepReg = sin.A
		default:
			return inductionInfo{}
		}
		sv, ok := rf.constVal[stepReg]
		if !ok {
			return inductionInfo{}
		}
		if sin.Op == ir.OpSub {
			sv = -sv
		}
		if sawStep && sv != info.step {
			return inductionInfo{}
		}
		info.step = sv
		sawStep = true
	}
	info.ok = sawInit && sawStep && info.step != 0
	return info
}

// AnalyzeLoop derives the trip-count classification for one loop.
func AnalyzeLoop(f *ir.Function, l *cfg.Loop, rf *regFacts) TripCount {
	if len(l.ExitBranches) == 0 {
		return TripCount{}
	}
	resolved := int64(-1)
	for _, e := range l.ExitBranches {
		t := f.Blocks[e.Block].Term()
		if t.Op != ir.OpBr {
			return TripCount{}
		}
		// The condition must be a comparison defined in the same block.
		cond := findDef(f, e.Block, t.A)
		if cond == nil {
			return TripCount{}
		}
		switch cond.Op {
		case ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE, ir.OpCmpNE, ir.OpCmpEQ:
		default:
			return TripCount{}
		}
		_, aConst := rf.constVal[cond.A]
		_, bConst := rf.constVal[cond.B]
		switch {
		case aConst && bConst:
			// Degenerate but constant.
		case bConst:
			ind := classifyInduction(f, l, rf, cond.A)
			if !ind.ok {
				return TripCount{}
			}
			if cond.Op == ir.OpCmpLT && ind.step > 0 {
				hi := rf.constVal[cond.B]
				n := (hi - ind.init + ind.step - 1) / ind.step
				if n < 0 {
					n = 0
				}
				resolved = n
			}
		case aConst:
			ind := classifyInduction(f, l, rf, cond.B)
			if !ind.ok {
				return TripCount{}
			}
		default:
			return TripCount{}
		}
	}
	return TripCount{Constant: true, Count: resolved}
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
