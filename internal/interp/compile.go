package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/taint"
)

// This file implements the compiled-closure engine (Machine.Mode ==
// ModeCompiled): a Compile pass lowers the predecoded instruction arrays
// into per-block chains of specialized Go step closures, executed by a
// block-threaded loop instead of the fast engine's per-instruction dispatch.
//
// Three ideas carry the speedup:
//
//   - Superinstructions: common 2-3 instruction sequences (add+mov
//     loop latches, load+op, op+store, and the cmp+br loop header)
//     fuse into one closure, and unconditional-jump chains flatten into
//     superblocks, so a canonical counted-loop iteration costs ~4 indirect
//     calls instead of ~8 dispatched instructions.
//
//   - Fuel batching with an exact de-optimization path: each straight-line
//     segment pre-charges its instruction count once. When the remaining
//     budget cannot cover a segment, the activation falls back to the fast
//     interpreter loop at the segment's first instruction (execLoop),
//     so ErrFuel aborts at the identical instruction with the identical
//     partial count as the oracle engines. Segments end at call sites, so
//     a callee never observes fuel pre-charged for instructions that have
//     not executed yet.
//
//   - Taint-clean block splitting: every function is compiled into
//     taint-live block variants and, when the static inertness analysis
//     proves the function (and its whole call subtree) can never touch a
//     label — no loads, no extern calls — into provably-clean variants
//     that run with zero shadow-heap or label work. A tainted run enters
//     the clean variant whenever every argument label and the inherited
//     control context are None; loop/branch records still update, so the
//     observable census is bit-identical.
//
// The reference and fast engines are untouched oracles; the three-way
// differential and fuzz harnesses in this package pin the equivalence.

// Compiled is the compiled-closure artifact of one predecoded Program. It
// is immutable after Compile and safe for concurrent use by any number of
// machines; batch runs and the daemon cache one Compiled per spec digest
// (see core.Prepared). Closure chains are process-local by nature, so disk
// cache tiers persist only the receipts that let a restart rebuild them.
type Compiled struct {
	prog  *Program
	funcs []*cfunc
}

// Program returns the predecoded program this artifact was compiled from.
func (cp *Compiled) Program() *Program { return cp.prog }

// vkind selects the specialization variant of a compiled block.
type vkind uint8

const (
	// vkPlain: untainted run, no label banks maintained at all.
	vkPlain vkind = iota
	// vkTaint: full taint semantics (labels, scopes, records).
	vkTaint
	// vkClean: tainted run through a statically-inert function entered with
	// all-None labels; record bookkeeping only, zero label/shadow work.
	vkClean
)

// step executes one straight-line superinstruction. It returns false on an
// execution error (k.err and k.refund are then set).
type step func(k *kctx) bool

// termFn executes a block terminator and returns the next block index, or
// termRet after setting k.ret/k.retl.
type termFn func(k *kctx) int32

// termRet is the termFn sentinel for a function return.
const termRet = int32(-1)

// cseg is one fuel-accounting unit: a straight-line run of steps whose
// instruction count is pre-charged in one subtraction. pc is the index of
// its first instruction, where the exact-fuel fallback resumes.
type cseg struct {
	pc    int32
	cost  int64
	steps []step
}

// cblock is one compiled basic block (possibly a superblock spanning an
// unconditional-jump chain). The first segment is stored inline — call-free
// blocks (the overwhelming majority) execute with no segment-slice walk at
// all; only blocks containing calls carry trailing segments in more. The
// terminator's cost is charged with the block's final segment.
type cblock struct {
	cost  int64
	pc    int32
	steps []step
	more  []cseg
	term  termFn
}

// cfunc is one compiled function: the per-variant block arrays. clean is
// non-nil only for statically-inert functions.
type cfunc struct {
	df    *dfunc
	inert bool
	plain []cblock
	taint []cblock
	clean []cblock
}

// kctx is the execution context of one compiled activation. It is pooled
// inside the activation's fastFrame, so steady-state execution allocates
// nothing per call — and because activations at one depth overwhelmingly
// repeat the same callee, the pointer-heavy fields are guarded by cheap
// identity checks (gen for run-scoped fields, df/pathIdx for
// activation-scoped ones) so the common re-entry writes no pointers at all
// (every pointer store pays a GC write barrier).
type kctx struct {
	m      *Machine
	cp     *Compiled
	prog   *Program
	df     *dfunc
	fr     *fastFrame
	regs   []Value
	labels []taint.Label
	path   *pathNode
	eng    *taint.Engine

	pathIdx int32
	depth   int
	fuel    int64
	// refund is the count of pre-charged instructions the erroring segment
	// did not execute; the executor adds it back for an exact abort count.
	refund int64
	err    error
	ret    Value
	retl   taint.Label
}

// wr applies the register-label write of the taint variants: the frame's
// control-taint state joins the control label and keeps the birth epochs.
func (k *kctx) wr(dst int32, wl taint.Label) {
	k.labels[dst] = k.fr.cs.write(dst, wl)
}

// loopEvent, branchRec and sinkExits resolve (lazily, preserving the
// reference engine's record creation order) the records of this activation's
// context: a taken edge's latch/entry effect, the branch counters, and the
// loop-exit taint sinks.
func (k *kctx) loopEvent(kind uint8, li int32) {
	tick(k.m.loopRec(k.df, k.path, li, k.eng), kind)
}

func (k *kctx) branchRec(t *dterm) *taint.BranchRecord {
	if brs := k.m.branchRecs[k.df.idx]; brs != nil {
		if r := brs[t.block]; r != nil {
			return r
		}
	}
	return k.m.branchRecSlow(k.df, t, k.eng)
}

func (k *kctx) sinkExits(t *dterm, l taint.Label) {
	k.m.sinkExits(k.df, k.path, t, l, k.eng)
}

// fail records an execution error. sc points at the enclosing segment's
// total cost and thr is the instruction count consumed through (and
// including) the erroring instruction, so the refund leaves the machine
// charged for exactly the instructions that ran.
func (k *kctx) fail(sc *int64, thr int64, err error) bool {
	k.refund = *sc - thr
	k.err = err
	return false
}

// Compile lowers prog into closure chains for every function. The pass is
// pure (prog is read-only) and runs once per program; machines share the
// artifact freely.
func Compile(prog *Program) *Compiled {
	cp := &Compiled{prog: prog}
	inert := computeInert(prog)
	cp.funcs = make([]*cfunc, len(prog.funcs))
	for i, df := range prog.funcs {
		cp.funcs[i] = &cfunc{df: df, inert: inert[i]}
	}
	for i, df := range prog.funcs {
		cf := cp.funcs[i]
		cf.plain = compileFunc(cp, df, vkPlain)
		cf.taint = compileFunc(cp, df, vkTaint)
		if cf.inert {
			cf.clean = compileFunc(cp, df, vkClean)
		}
	}
	return cp
}

// computeInert runs the taint-inertness fixpoint: a function is inert when
// it has no loads, no extern call sites, and every callee is inert. Inert
// functions entered with all-None argument labels and a None control
// context provably never read or produce a label, which licenses the clean
// block variants.
func computeInert(prog *Program) []bool {
	inert := make([]bool, len(prog.funcs))
	for i, df := range prog.funcs {
		inert[i] = true
		for pc := range df.code {
			in := &df.code[pc]
			if in.op == ir.OpLoad || (in.op == ir.OpCall && df.calls[in.aux].callee < 0) {
				inert[i] = false
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, df := range prog.funcs {
			if !inert[i] {
				continue
			}
			for ci := range df.calls {
				if c := df.calls[ci].callee; c >= 0 && !inert[c] {
					inert[i] = false
					changed = true
					break
				}
			}
		}
	}
	return inert
}

func compileFunc(cp *Compiled, df *dfunc, vk vkind) []cblock {
	blocks := make([]cblock, df.numBlocks)
	for b := int32(0); b < df.numBlocks; b++ {
		blocks[b] = compileChain(cp, df, vk, b)
	}
	return blocks
}

// compiler accumulates the segments of one block chain under construction.
type compiler struct {
	cp   *Compiled
	prog *Program
	df   *dfunc
	vk   vkind

	segs  []cseg
	steps []step
	segPC int32
	// segCost is shared with every erroring step of the current segment so
	// refunds can be computed against the final segment cost.
	segCost *int64
	through int64
}

func (c *compiler) open(pc int32) {
	c.segPC = pc
	c.segCost = new(int64)
	c.through = 0
	c.steps = nil
}

// put appends a step covering n instructions (nil steps contribute fuel
// accounting only — e.g. an unconditional jump with no edge effects).
func (c *compiler) put(st step, n int64) {
	c.through += n
	if st != nil {
		c.steps = append(c.steps, st)
	}
}

// cut closes the current segment and opens the next at nextPC.
func (c *compiler) cut(nextPC int32) {
	*c.segCost = c.through
	c.segs = append(c.segs, cseg{pc: c.segPC, cost: c.through, steps: c.steps})
	c.open(nextPC)
}

// close charges the terminator into the final segment and seals the block.
func (c *compiler) close(term termFn, termCost int64) cblock {
	c.through += termCost
	*c.segCost = c.through
	c.segs = append(c.segs, cseg{pc: c.segPC, cost: c.through, steps: c.steps})
	head := c.segs[0]
	return cblock{cost: head.cost, pc: head.pc, steps: head.steps, more: c.segs[1:], term: term}
}

// maxChain bounds superblock flattening across unconditional-jump chains
// (code duplication is linear in this bound).
const maxChain = 8

func isCmp(op ir.Opcode) bool {
	return op >= ir.OpCmpEQ && op <= ir.OpCmpGE
}

func isArith(op ir.Opcode) bool {
	return op == ir.OpAdd || op == ir.OpSub || op == ir.OpMul
}

// compileChain compiles the superblock starting at b0: b0's straight-line
// code plus every block reachable through unconditional jumps (cycle-free,
// bounded), flattened into fuel segments with fused superinstructions.
func compileChain(cp *Compiled, df *dfunc, vk vkind, b0 int32) cblock {
	c := &compiler{cp: cp, prog: cp.prog, df: df, vk: vk}
	c.open(df.blockPC[b0])
	var seenArr [maxChain]int32
	seen := seenArr[:0]
	seen = append(seen, b0)
	b := b0
	for {
		start := df.blockPC[b]
		tpc := start + int32(len(df.fn.Blocks[b].Instrs)) - 1
		t := &df.code[tpc]
		bodyEnd := tpc
		var fusedCmp *dinstr
		if t.op == ir.OpBr && bodyEnd > start {
			if p := &df.code[bodyEnd-1]; isCmp(p.op) && p.dst == t.a {
				fusedCmp = p
				bodyEnd--
			}
		}
		c.emitRange(start, bodyEnd)
		switch t.op {
		case ir.OpJmp:
			tgt := t.blk0
			inline := len(seen) < maxChain
			for _, s := range seen {
				if s == tgt {
					inline = false
					break
				}
			}
			if inline {
				c.emitJmpEdge(t)
				seen = append(seen, tgt)
				b = tgt
				continue
			}
			return c.close(c.jmpTerm(t), 1)
		case ir.OpBr:
			bi := &brInfo{
				bm: &df.branches[t.aux], a: t.a,
				blk0: t.blk0, blk1: t.blk1,
				evk0: t.evk0, evk1: t.evk1,
				evl0: t.evl0, evl1: t.evl1,
			}
			cost := int64(1)
			if fusedCmp != nil {
				bi.fused = true
				bi.cop = fusedCmp.op
				bi.cdst, bi.ca, bi.cb = fusedCmp.dst, fusedCmp.a, fusedCmp.b
				cost = 2
			}
			switch vk {
			case vkTaint:
				return c.close(bi.taintTerm, cost)
			case vkClean:
				return c.close(bi.cleanTerm, cost)
			default:
				return c.close(bi.plainTerm, cost)
			}
		case ir.OpSwitch:
			si := &swInfo{sw: &df.switches[t.aux], a: t.a}
			switch vk {
			case vkTaint:
				return c.close(si.taintTerm, 1)
			case vkClean:
				return c.close(si.cleanTerm, 1)
			default:
				return c.close(si.plainTerm, 1)
			}
		case ir.OpRet:
			ri := &retInfo{a: t.a}
			if vk == vkTaint {
				return c.close(ri.taintTerm, 1)
			}
			return c.close(ri.plainTerm, 1)
		default:
			panic(fmt.Sprintf("interp: block %d of %s has no terminator", b, df.name))
		}
	}
}

// emitRange lowers the straight-line instructions [start, end) with the
// pairwise superinstruction peephole. Call sites close their segment so
// callee fuel accounting stays exact.
func (c *compiler) emitRange(start, end int32) {
	code := c.df.code
	for pc := start; pc < end; {
		in := &code[pc]
		var nx *dinstr
		if pc+1 < end {
			nx = &code[pc+1]
		}
		switch {
		case in.op == ir.OpAdd && nx != nil && nx.op == ir.OpMov && nx.a == in.dst:
			c.emitAddMov(in, nx)
			pc += 2
		case in.op == ir.OpLoad && nx != nil && isArith(nx.op) && (nx.a == in.dst || nx.b == in.dst) && c.vk != vkClean &&
			pc+2 < end && code[pc+2].op == ir.OpStore && code[pc+2].b == nx.dst:
			c.emitLoadOpStore(in, nx, &code[pc+2])
			pc += 3
		case in.op == ir.OpLoad && nx != nil && isArith(nx.op) && (nx.a == in.dst || nx.b == in.dst) && c.vk != vkClean:
			c.emitLoadOp(in, nx)
			pc += 2
		case isArith(in.op) && nx != nil && nx.op == ir.OpStore && nx.b == in.dst:
			c.emitOpStore(in, nx)
			pc += 2
		case in.op == ir.OpCall:
			c.emitCall(in)
			c.cut(pc + 1)
			pc++
		default:
			c.emitOne(in, pc)
			pc++
		}
	}
}

// arith2 computes a two-operand arithmetic/comparison op (no error cases).
func arith2(op ir.Opcode, a, b Value) Value {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	default:
		return binop(op, a, b)
	}
}

// emitOne lowers a single unfused instruction.
func (c *compiler) emitOne(in *dinstr, pc int32) {
	dst, a, b := in.dst, in.a, in.b
	tainted := c.vk == vkTaint
	switch in.op {
	case ir.OpConst:
		imm := in.imm
		if tainted {
			c.put(func(k *kctx) bool { k.regs[dst] = imm; k.wr(dst, taint.None); return true }, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = imm; return true }, 1)
		}
	case ir.OpMov:
		if tainted {
			c.put(func(k *kctx) bool { k.regs[dst] = k.regs[a]; k.wr(dst, k.labels[a]); return true }, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = k.regs[a]; return true }, 1)
		}
	case ir.OpAdd:
		if tainted {
			c.put(func(k *kctx) bool {
				k.regs[dst] = k.regs[a] + k.regs[b]
				k.wr(dst, k.labels[a]|k.labels[b])
				return true
			}, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = k.regs[a] + k.regs[b]; return true }, 1)
		}
	case ir.OpSub:
		if tainted {
			c.put(func(k *kctx) bool {
				k.regs[dst] = k.regs[a] - k.regs[b]
				k.wr(dst, k.labels[a]|k.labels[b])
				return true
			}, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = k.regs[a] - k.regs[b]; return true }, 1)
		}
	case ir.OpMul:
		if tainted {
			c.put(func(k *kctx) bool {
				k.regs[dst] = k.regs[a] * k.regs[b]
				k.wr(dst, k.labels[a]|k.labels[b])
				return true
			}, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = k.regs[a] * k.regs[b]; return true }, 1)
		}
	case ir.OpCmpLT:
		if tainted {
			c.put(func(k *kctx) bool {
				k.regs[dst] = boolVal(k.regs[a] < k.regs[b])
				k.wr(dst, k.labels[a]|k.labels[b])
				return true
			}, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = boolVal(k.regs[a] < k.regs[b]); return true }, 1)
		}
	case ir.OpNeg:
		if tainted {
			c.put(func(k *kctx) bool { k.regs[dst] = -k.regs[a]; k.wr(dst, k.labels[a]); return true }, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = -k.regs[a]; return true }, 1)
		}
	case ir.OpNot:
		if tainted {
			c.put(func(k *kctx) bool {
				k.regs[dst] = boolVal(k.regs[a] == 0)
				k.wr(dst, k.labels[a])
				return true
			}, 1)
		} else {
			c.put(func(k *kctx) bool { k.regs[dst] = boolVal(k.regs[a] == 0); return true }, 1)
		}
	case ir.OpLoad:
		c.emitLoad(in)
	case ir.OpStore:
		c.emitStore(in)
	case ir.OpAlloc:
		c.emitAlloc(in)
	case ir.OpGlobal:
		c.emitGlobal(in, pc)
	case ir.OpWork:
		// Abstract work has no analysis effect: it costs fuel, not a step.
		c.put(nil, 1)
	default:
		// Remaining two-operand ops (div/mod/bitwise/shifts/min/max and the
		// non-specialized comparisons) share the generic arithmetic step.
		op := in.op
		hasB := b >= 0
		if tainted {
			if hasB {
				c.put(func(k *kctx) bool {
					k.regs[dst] = binop(op, k.regs[a], k.regs[b])
					k.wr(dst, k.labels[a]|k.labels[b])
					return true
				}, 1)
			} else {
				c.put(func(k *kctx) bool {
					k.regs[dst] = binop(op, k.regs[a], 0)
					k.wr(dst, k.labels[a])
					return true
				}, 1)
			}
		} else {
			if hasB {
				c.put(func(k *kctx) bool { k.regs[dst] = binop(op, k.regs[a], k.regs[b]); return true }, 1)
			} else {
				c.put(func(k *kctx) bool { k.regs[dst] = binop(op, k.regs[a], 0); return true }, 1)
			}
		}
	}
}

func (c *compiler) emitLoad(in *dinstr) {
	if c.vk == vkClean {
		panic("interp: compiling clean variant with a load (inertness analysis bug)")
	}
	dst, a, imm := in.dst, in.a, in.imm
	name := c.df.name
	sc, thr := c.segCost, c.through+1
	if c.vk == vkTaint {
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			k.regs[dst] = m.heap[addr]
			sl := taint.None
			if addr < Value(len(m.shadow)) {
				sl = m.shadow[addr]
			}
			k.wr(dst, sl|k.labels[a])
			return true
		}, 1)
		return
	}
	c.put(func(k *kctx) bool {
		m := k.m
		addr := k.regs[a] + imm
		if uint64(addr) >= uint64(len(m.heap)) {
			return k.fail(sc, thr, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
		}
		k.regs[dst] = m.heap[addr]
		return true
	}, 1)
}

func (c *compiler) emitStore(in *dinstr) {
	a, b, imm := in.a, in.b, in.imm
	name := c.df.name
	sc, thr := c.segCost, c.through+1
	switch c.vk {
	case vkTaint:
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = k.regs[b]
			l := k.labels[b] | k.labels[a]
			l |= k.fr.cs.memCtl()
			if addr < Value(len(m.shadow)) {
				m.shadow[addr] = l
			} else if l != taint.None {
				m.growShadow(addr, l)
			}
			return true
		}, 1)
	case vkClean:
		// Every live label is None in a clean activation, so a store's only
		// shadow effect is clearing a previously-tainted cell; cells beyond
		// the shadow prefix are already untainted.
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = k.regs[b]
			if addr < Value(len(m.shadow)) {
				m.shadow[addr] = taint.None
			}
			return true
		}, 1)
	default:
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = k.regs[b]
			return true
		}, 1)
	}
}

func (c *compiler) emitAlloc(in *dinstr) {
	dst, a := in.dst, in.a
	name := c.df.name
	sc, thr := c.segCost, c.through+1
	tainted := c.vk == vkTaint
	c.put(func(k *kctx) bool {
		base, err := k.m.alloc(k.regs[a])
		if err != nil {
			return k.fail(sc, thr, fmt.Errorf("%s: %w", name, err))
		}
		k.regs[dst] = base
		if tainted {
			k.wr(dst, taint.None)
		}
		return true
	}, 1)
}

func (c *compiler) emitGlobal(in *dinstr, pc int32) {
	dst := in.dst
	if in.aux < 0 {
		name, sym := c.df.name, c.df.unknownGlob[pc]
		sc, thr := c.segCost, c.through+1
		c.put(func(k *kctx) bool {
			return k.fail(sc, thr, fmt.Errorf("%s: interp: unknown global %q", name, sym))
		}, 1)
		return
	}
	ord := in.aux
	if c.vk == vkTaint {
		c.put(func(k *kctx) bool { k.regs[dst] = k.m.globalBase[ord]; k.wr(dst, taint.None); return true }, 1)
	} else {
		c.put(func(k *kctx) bool { k.regs[dst] = k.m.globalBase[ord]; return true }, 1)
	}
}

// emitAddMov fuses Add t, a, b; Mov d, t — the canonical loop-latch
// increment produced by the IR builder's For lowering.
func (c *compiler) emitAddMov(in, nx *dinstr) {
	dst, a, b, d2 := in.dst, in.a, in.b, nx.dst
	if c.vk == vkTaint {
		c.put(func(k *kctx) bool {
			k.regs[dst] = k.regs[a] + k.regs[b]
			k.wr(dst, k.labels[a]|k.labels[b])
			k.regs[d2] = k.regs[dst]
			k.wr(d2, k.labels[dst])
			return true
		}, 2)
		return
	}
	c.put(func(k *kctx) bool {
		v := k.regs[a] + k.regs[b]
		k.regs[dst] = v
		k.regs[d2] = v
		return true
	}, 2)
}

// emitLoadOp fuses Load t; <arith> d, x, y where the arithmetic consumes
// the loaded value.
func (c *compiler) emitLoadOp(in, nx *dinstr) {
	dst, a, imm := in.dst, in.a, in.imm
	op, d2, a2, b2 := nx.op, nx.dst, nx.a, nx.b
	name := c.df.name
	sc, thr := c.segCost, c.through+1
	if c.vk == vkTaint {
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			k.regs[dst] = m.heap[addr]
			sl := taint.None
			if addr < Value(len(m.shadow)) {
				sl = m.shadow[addr]
			}
			k.wr(dst, sl|k.labels[a])
			k.regs[d2] = arith2(op, k.regs[a2], k.regs[b2])
			k.wr(d2, k.labels[a2]|k.labels[b2])
			return true
		}, 2)
		return
	}
	c.put(func(k *kctx) bool {
		m := k.m
		addr := k.regs[a] + imm
		if uint64(addr) >= uint64(len(m.heap)) {
			return k.fail(sc, thr, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
		}
		k.regs[dst] = m.heap[addr]
		k.regs[d2] = arith2(op, k.regs[a2], k.regs[b2])
		return true
	}, 2)
}

// emitLoadOpStore fuses the read-modify-write kernel idiom into one step:
// Load t, p; <arith> u, f(t); Store q, u. Three instructions, one call.
func (c *compiler) emitLoadOpStore(in, nx, st *dinstr) {
	dst, a, imm := in.dst, in.a, in.imm
	op, d2, a2, b2 := nx.op, nx.dst, nx.a, nx.b
	sa, simm := st.a, st.imm
	name := c.df.name
	sc, thrL, thrS := c.segCost, c.through+1, c.through+3
	if c.vk == vkTaint {
		c.put(func(k *kctx) bool {
			m := k.m
			addr := k.regs[a] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thrL, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			k.regs[dst] = m.heap[addr]
			sl := taint.None
			if addr < Value(len(m.shadow)) {
				sl = m.shadow[addr]
			}
			k.wr(dst, sl|k.labels[a])
			v := arith2(op, k.regs[a2], k.regs[b2])
			k.regs[d2] = v
			k.wr(d2, k.labels[a2]|k.labels[b2])
			saddr := k.regs[sa] + simm
			if uint64(saddr) >= uint64(len(m.heap)) {
				return k.fail(sc, thrS, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, saddr, len(m.heap)))
			}
			m.heap[saddr] = v
			l := k.labels[d2] | k.labels[sa]
			l |= k.fr.cs.memCtl()
			if saddr < Value(len(m.shadow)) {
				m.shadow[saddr] = l
			} else if l != taint.None {
				m.growShadow(saddr, l)
			}
			return true
		}, 3)
		return
	}
	c.put(func(k *kctx) bool {
		m := k.m
		addr := k.regs[a] + imm
		if uint64(addr) >= uint64(len(m.heap)) {
			return k.fail(sc, thrL, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", name, addr, len(m.heap)))
		}
		k.regs[dst] = m.heap[addr]
		v := arith2(op, k.regs[a2], k.regs[b2])
		k.regs[d2] = v
		saddr := k.regs[sa] + simm
		if uint64(saddr) >= uint64(len(m.heap)) {
			return k.fail(sc, thrS, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, saddr, len(m.heap)))
		}
		m.heap[saddr] = v
		return true
	}, 3)
}

// emitOpStore fuses <arith> t, x, y; Store addr, t.
func (c *compiler) emitOpStore(in, nx *dinstr) {
	op, dst, a, b := in.op, in.dst, in.a, in.b
	sa, imm := nx.a, nx.imm
	name := c.df.name
	sc, thr := c.segCost, c.through+2
	switch c.vk {
	case vkTaint:
		c.put(func(k *kctx) bool {
			m := k.m
			v := arith2(op, k.regs[a], k.regs[b])
			k.regs[dst] = v
			k.wr(dst, k.labels[a]|k.labels[b])
			addr := k.regs[sa] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = v
			l := k.labels[dst] | k.labels[sa]
			l |= k.fr.cs.memCtl()
			if addr < Value(len(m.shadow)) {
				m.shadow[addr] = l
			} else if l != taint.None {
				m.growShadow(addr, l)
			}
			return true
		}, 2)
	case vkClean:
		c.put(func(k *kctx) bool {
			m := k.m
			v := arith2(op, k.regs[a], k.regs[b])
			k.regs[dst] = v
			addr := k.regs[sa] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = v
			if addr < Value(len(m.shadow)) {
				m.shadow[addr] = taint.None
			}
			return true
		}, 2)
	default:
		c.put(func(k *kctx) bool {
			m := k.m
			v := arith2(op, k.regs[a], k.regs[b])
			k.regs[dst] = v
			addr := k.regs[sa] + imm
			if uint64(addr) >= uint64(len(m.heap)) {
				return k.fail(sc, thr, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", name, addr, len(m.heap)))
			}
			m.heap[addr] = v
			return true
		}, 2)
	}
}

// emitJmpEdge lowers an unconditional jump flattened inside a superblock:
// fuel plus the edge's scope-close and loop-event effects.
func (c *compiler) emitJmpEdge(t *dinstr) {
	blk, evk, evl := t.blk0, t.evk0, t.evl0
	switch c.vk {
	case vkTaint:
		c.put(func(k *kctx) bool {
			k.fr.cs.closeAt(blk)
			if evk != evNone {
				k.loopEvent(evk, evl)
			}
			return true
		}, 1)
	case vkClean:
		if evk != evNone {
			c.put(func(k *kctx) bool {
				k.loopEvent(evk, evl)
				return true
			}, 1)
		} else {
			c.put(nil, 1)
		}
	default:
		c.put(nil, 1)
	}
}

// jmpTerm lowers an unconditional jump that ends a superblock chain.
func (c *compiler) jmpTerm(t *dinstr) termFn {
	blk, evk, evl := t.blk0, t.evk0, t.evl0
	switch c.vk {
	case vkTaint:
		return func(k *kctx) int32 {
			k.fr.cs.closeAt(blk)
			if evk != evNone {
				k.loopEvent(evk, evl)
			}
			return blk
		}
	case vkClean:
		if evk != evNone {
			return func(k *kctx) int32 {
				k.loopEvent(evk, evl)
				return blk
			}
		}
		return func(k *kctx) int32 { return blk }
	default:
		return func(k *kctx) int32 { return blk }
	}
}

// brInfo carries the captured state of one conditional-branch terminator,
// optionally fused with the comparison that computes its condition.
type brInfo struct {
	bm         *dterm
	a          int32
	blk0, blk1 int32
	evk0, evk1 uint8
	evl0, evl1 int32

	fused        bool
	cop          ir.Opcode
	cdst, ca, cb int32
}

func (bi *brInfo) plainTerm(k *kctx) int32 {
	if bi.fused {
		k.regs[bi.cdst] = binop(bi.cop, k.regs[bi.ca], k.regs[bi.cb])
	}
	if k.regs[bi.a] != 0 {
		return bi.blk0
	}
	return bi.blk1
}

func (bi *brInfo) taintTerm(k *kctx) int32 {
	if bi.fused {
		k.regs[bi.cdst] = binop(bi.cop, k.regs[bi.ca], k.regs[bi.cb])
		k.wr(bi.cdst, k.labels[bi.ca]|k.labels[bi.cb])
	}
	cond := k.regs[bi.a] != 0
	condLabel := k.labels[bi.a]
	bm := bi.bm
	k.sinkExits(bm, condLabel)
	br := k.branchRec(bm)
	br.Labels |= condLabel
	cs := &k.fr.cs
	if cond {
		br.Taken++
	} else {
		br.NotTaken++
	}
	if cs.cflow && condLabel != taint.None {
		cs.push(int(bm.joinBlk), condLabel, bm.exit != noExit)
	}
	if cond {
		cs.closeAt(bi.blk0)
		if bi.evk0 != evNone {
			k.loopEvent(bi.evk0, bi.evl0)
		}
		return bi.blk0
	}
	cs.closeAt(bi.blk1)
	if bi.evk1 != evNone {
		k.loopEvent(bi.evk1, bi.evl1)
	}
	return bi.blk1
}

// cleanTerm keeps the record bookkeeping of taintTerm with the condition
// label known None: loop-exit and branch records are still created and
// counted (census parity), but no label unions or control scopes occur.
func (bi *brInfo) cleanTerm(k *kctx) int32 {
	if bi.fused {
		k.regs[bi.cdst] = binop(bi.cop, k.regs[bi.ca], k.regs[bi.cb])
	}
	cond := k.regs[bi.a] != 0
	bm := bi.bm
	k.sinkExits(bm, taint.None)
	br := k.branchRec(bm)
	if cond {
		br.Taken++
		if bi.evk0 != evNone {
			k.loopEvent(bi.evk0, bi.evl0)
		}
		return bi.blk0
	}
	br.NotTaken++
	if bi.evk1 != evNone {
		k.loopEvent(bi.evk1, bi.evl1)
	}
	return bi.blk1
}

// swInfo carries the captured state of one switch terminator.
type swInfo struct {
	sw *dswitch
	a  int32
}

func (si *swInfo) pick(k *kctx) *dcase {
	sw := si.sw
	v := k.regs[si.a]
	for i := range sw.cases {
		if sw.cases[i].val == v {
			return &sw.cases[i]
		}
	}
	return &sw.def
}

func (si *swInfo) plainTerm(k *kctx) int32 {
	return si.pick(k).blk
}

func (si *swInfo) taintTerm(k *kctx) int32 {
	tgt := si.pick(k)
	sw := si.sw
	condLabel := k.labels[si.a]
	k.sinkExits(&sw.dterm, condLabel)
	cs := &k.fr.cs
	if cs.cflow && condLabel != taint.None {
		cs.push(int(sw.joinBlk), condLabel, sw.exit != noExit)
	}
	cs.closeAt(tgt.blk)
	if tgt.evk != evNone {
		k.loopEvent(tgt.evk, tgt.evl)
	}
	return tgt.blk
}

func (si *swInfo) cleanTerm(k *kctx) int32 {
	tgt := si.pick(k)
	k.sinkExits(&si.sw.dterm, taint.None)
	if tgt.evk != evNone {
		k.loopEvent(tgt.evk, tgt.evl)
	}
	return tgt.blk
}

// retInfo carries the captured state of one return terminator.
type retInfo struct{ a int32 }

func (ri *retInfo) taintTerm(k *kctx) int32 {
	if ri.a < 0 {
		k.ret, k.retl = 0, taint.None
	} else {
		k.ret, k.retl = k.regs[ri.a], k.labels[ri.a]
	}
	return termRet
}

func (ri *retInfo) plainTerm(k *kctx) int32 {
	if ri.a < 0 {
		k.ret = 0
	} else {
		k.ret = k.regs[ri.a]
	}
	k.retl = taint.None
	return termRet
}

// emitCall lowers one call site. The segment is cut immediately after by
// emitRange, so a call is always the final — and thus exactly-charged —
// instruction of its segment, and callees see a fuel budget that reflects
// only instructions that actually ran.
func (c *compiler) emitCall(in *dinstr) {
	site := &c.df.calls[in.aux]
	dst := in.dst
	sc, thr := c.segCost, c.through+1
	if site.callee >= 0 {
		if int32(len(site.args)) != site.numParams {
			sym, n, want := site.sym, len(site.args), site.numParams
			c.put(func(k *kctx) bool {
				return k.fail(sc, thr, fmt.Errorf("interp: call %s with %d args, wants %d", sym, n, want))
			}, 1)
			return
		}
		cdf := c.prog.funcs[site.callee]
		ccf := c.cp.funcs[site.callee]
		switch c.vk {
		case vkTaint:
			c.put(moduleCallTaint(site, cdf, ccf, dst, sc, thr), 1)
		case vkClean:
			if !ccf.inert {
				panic("interp: clean variant calling a non-inert callee (inertness analysis bug)")
			}
			c.put(moduleCallClean(site, cdf, ccf, dst, sc, thr), 1)
		default:
			c.put(moduleCallPlain(site, cdf, ccf, dst, sc, thr), 1)
		}
		return
	}
	if c.vk == vkClean {
		panic("interp: compiling clean variant with an extern call (inertness analysis bug)")
	}
	c.put(externCallStep(site, dst, sc, thr, c.vk == vkTaint), 1)
}

// resolveChild interns (with site-cache memoization) the callee context.
// The hit path is inlined at every call step; only the first resolution per
// (site, parent) pays the childPath walk.
func resolveChild(k *kctx, site *dcall, siteID int32) int32 {
	m := k.m
	if scv := m.siteCache[siteID]; scv != 0 && int32(scv>>32) == k.pathIdx {
		return int32(scv)
	}
	childIdx := m.childPath(k.prog, k.pathIdx, site)
	m.siteCache[siteID] = int64(k.pathIdx)<<32 | int64(childIdx)
	return childIdx
}

func moduleCallTaint(site *dcall, cdf *dfunc, ccf *cfunc, dst int32, sc *int64, thr int64) step {
	siteID := site.siteID
	args := site.args
	return func(k *kctx) bool {
		m := k.m
		childCtl := k.fr.cs.memCtl()
		childIdx := resolveChild(k, site, siteID)
		cfr := m.frame(k.depth+1, cdf)
		am := taint.None
		for i, r := range args {
			cfr.regs[i] = k.regs[r]
			l := k.labels[r]
			cfr.labels[i] = l
			am |= l
		}
		m.fuel = k.fuel
		var v Value
		var l taint.Label
		var err error
		if ccf.clean != nil && am == taint.None && childCtl == taint.None {
			v, l, err = m.execCompiled(k.cp, ccf, ccf.clean, cfr, childIdx, taint.None, k.depth+1, vkClean)
		} else {
			v, l, err = m.execCompiled(k.cp, ccf, ccf.taint, cfr, childIdx, childCtl, k.depth+1, vkTaint)
		}
		if err != nil {
			// The callee already set m.fuel at its abort point; re-sync so
			// the executor's refund arithmetic leaves it untouched.
			k.fuel = m.fuel
			return k.fail(sc, thr, err)
		}
		k.fuel = m.fuel
		k.regs[dst] = v
		k.wr(dst, l)
		return true
	}
}

func moduleCallClean(site *dcall, cdf *dfunc, ccf *cfunc, dst int32, sc *int64, thr int64) step {
	siteID := site.siteID
	args := site.args
	return func(k *kctx) bool {
		m := k.m
		childIdx := resolveChild(k, site, siteID)
		cfr := m.frame(k.depth+1, cdf)
		for i, r := range args {
			cfr.regs[i] = k.regs[r]
		}
		m.fuel = k.fuel
		v, _, err := m.execCompiled(k.cp, ccf, ccf.clean, cfr, childIdx, taint.None, k.depth+1, vkClean)
		if err != nil {
			k.fuel = m.fuel
			return k.fail(sc, thr, err)
		}
		k.fuel = m.fuel
		k.regs[dst] = v
		return true
	}
}

func moduleCallPlain(site *dcall, cdf *dfunc, ccf *cfunc, dst int32, sc *int64, thr int64) step {
	siteID := site.siteID
	args := site.args
	return func(k *kctx) bool {
		m := k.m
		childIdx := resolveChild(k, site, siteID)
		cfr := m.frame(k.depth+1, cdf)
		for i, r := range args {
			cfr.regs[i] = k.regs[r]
		}
		m.fuel = k.fuel
		v, _, err := m.execCompiled(k.cp, ccf, ccf.plain, cfr, childIdx, taint.None, k.depth+1, vkPlain)
		if err != nil {
			k.fuel = m.fuel
			return k.fail(sc, thr, err)
		}
		k.fuel = m.fuel
		k.regs[dst] = v
		return true
	}
}

func externCallStep(site *dcall, dst int32, sc *int64, thr int64, labeling bool) step {
	return func(k *kctx) bool {
		m := k.m
		ext := m.externSlots[site.externOrd]
		if ext == nil {
			ext = m.Externs[site.sym]
			if ext == nil {
				return k.fail(sc, thr, fmt.Errorf("interp: unresolved call target %q", site.sym))
			}
			m.externSlots[site.externOrd] = ext
		}
		childIdx := resolveChild(k, site, site.siteID)
		fr := k.fr
		n := len(site.args)
		if cap(fr.args) < n {
			fr.args = make([]Value, n)
			fr.argLabels = make([]taint.Label, n)
		}
		eargs := fr.args[:n]
		elabels := fr.argLabels[:n]
		if labeling {
			for i, r := range site.args {
				eargs[i] = k.regs[r]
				elabels[i] = k.labels[r]
			}
		} else {
			for i, r := range site.args {
				eargs[i] = k.regs[r]
			}
		}
		child := m.paths[childIdx]
		cc := &fr.ext
		cc.M = m
		cc.Name = site.sym
		cc.Args = eargs
		cc.ArgLabels = elabels
		cc.CallPath = child.str
		cc.RetLabel = taint.None
		cc.recCache = &child.libRec
		v, err := ext(cc)
		if err != nil {
			return k.fail(sc, thr, fmt.Errorf("extern %s: %w", site.sym, err))
		}
		k.regs[dst] = v
		if labeling {
			k.wr(dst, cc.RetLabel)
		}
		return true
	}
}
