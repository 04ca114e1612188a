package ir

import "fmt"

// Builder incrementally constructs a Function. It tracks the current
// insertion block and provides structured helpers (If, For, While) that
// always produce reducible control flow with natural loops, matching the
// paper's assumption of loop-based HPC codes.
type Builder struct {
	fn   *Function
	cur  *Block
	mod  *Module
	done bool
}

// NewFunc starts building a function with numParams parameters inside m.
// The entry block is created and selected.
func NewFunc(m *Module, name string, numParams int) *Builder {
	fn := &Function{Name: name, NumParams: numParams, NumRegs: numParams}
	b := &Builder{fn: fn, mod: m}
	b.cur = b.NewBlock("entry")
	return b
}

// Func returns the function under construction.
func (b *Builder) Func() *Function { return b.fn }

// Module returns the module the function will join.
func (b *Builder) Module() *Module { return b.mod }

// Param returns the register holding parameter i.
func (b *Builder) Param(i int) Reg {
	if i < 0 || i >= b.fn.NumParams {
		panic(fmt.Sprintf("ir: function %q has no parameter %d", b.fn.Name, i))
	}
	return Reg(i)
}

// NewReg allocates a fresh virtual register.
func (b *Builder) NewReg() Reg {
	r := Reg(b.fn.NumRegs)
	b.fn.NumRegs++
	return r
}

// NewBlock appends an empty block named name and returns it without
// changing the insertion point.
func (b *Builder) NewBlock(name string) *Block {
	blk := &Block{Index: len(b.fn.Blocks), Name: name}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// CurBlock returns the current insertion block.
func (b *Builder) CurBlock() *Block { return b.cur }

func (b *Builder) emit(in Instr) {
	if b.cur == nil {
		panic("ir: emit with no insertion block")
	}
	if n := len(b.cur.Instrs); n > 0 && b.cur.Instrs[n-1].Op.IsTerm() {
		panic(fmt.Sprintf("ir: emit into terminated block %q of %q", b.cur.Name, b.fn.Name))
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// Const materializes the constant v into a fresh register.
func (b *Builder) Const(v int64) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpConst, Dst: dst, A: NoReg, B: NoReg, Imm: v})
	return dst
}

// Mov copies src into a fresh register.
func (b *Builder) Mov(src Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg})
	return dst
}

// MovTo copies src into dst (used to update loop induction variables).
func (b *Builder) MovTo(dst, src Reg) {
	b.emit(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg})
}

// Bin emits a two-operand instruction and returns the destination register.
func (b *Builder) Bin(op Opcode, x, y Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: op, Dst: dst, A: x, B: y})
	return dst
}

// Add emits x + y.
func (b *Builder) Add(x, y Reg) Reg { return b.Bin(OpAdd, x, y) }

// Sub emits x - y.
func (b *Builder) Sub(x, y Reg) Reg { return b.Bin(OpSub, x, y) }

// Mul emits x * y.
func (b *Builder) Mul(x, y Reg) Reg { return b.Bin(OpMul, x, y) }

// Div emits x / y.
func (b *Builder) Div(x, y Reg) Reg { return b.Bin(OpDiv, x, y) }

// Mod emits x % y.
func (b *Builder) Mod(x, y Reg) Reg { return b.Bin(OpMod, x, y) }

// CmpLT emits x < y.
func (b *Builder) CmpLT(x, y Reg) Reg { return b.Bin(OpCmpLT, x, y) }

// CmpLE emits x <= y.
func (b *Builder) CmpLE(x, y Reg) Reg { return b.Bin(OpCmpLE, x, y) }

// CmpEQ emits x == y.
func (b *Builder) CmpEQ(x, y Reg) Reg { return b.Bin(OpCmpEQ, x, y) }

// CmpNE emits x != y.
func (b *Builder) CmpNE(x, y Reg) Reg { return b.Bin(OpCmpNE, x, y) }

// CmpGT emits x > y.
func (b *Builder) CmpGT(x, y Reg) Reg { return b.Bin(OpCmpGT, x, y) }

// CmpGE emits x >= y.
func (b *Builder) CmpGE(x, y Reg) Reg { return b.Bin(OpCmpGE, x, y) }

// Neg emits -x.
func (b *Builder) Neg(x Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpNeg, Dst: dst, A: x, B: NoReg})
	return dst
}

// Not emits the boolean negation of x.
func (b *Builder) Not(x Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpNot, Dst: dst, A: x, B: NoReg})
	return dst
}

// Load emits heap[addr+off].
func (b *Builder) Load(addr Reg, off int64) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpLoad, Dst: dst, A: addr, B: NoReg, Imm: off})
	return dst
}

// Store emits heap[addr+off] = val.
func (b *Builder) Store(addr Reg, off int64, val Reg) {
	b.emit(Instr{Op: OpStore, Dst: NoReg, A: addr, B: val, Imm: off})
}

// Alloc emits a heap allocation of size cells (register operand).
func (b *Builder) Alloc(size Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpAlloc, Dst: dst, A: size, B: NoReg})
	return dst
}

// GlobalAddr emits the address of module global name.
func (b *Builder) GlobalAddr(name string) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpGlobal, Dst: dst, A: NoReg, B: NoReg, Sym: name})
	return dst
}

// Call emits a direct call and returns the result register.
func (b *Builder) Call(callee string, args ...Reg) Reg {
	dst := b.NewReg()
	b.emit(Instr{Op: OpCall, Dst: dst, A: NoReg, B: NoReg, Sym: callee, Args: args})
	return dst
}

// Work emits a simulated computation of units abstract work items. The
// interpreter charges it one instruction of fuel; taint ignores it.
func (b *Builder) Work(units Reg) {
	b.emit(Instr{Op: OpWork, Dst: NoReg, A: units, B: NoReg})
}

// Ret terminates the current block returning val (NoReg for void).
func (b *Builder) Ret(val Reg) {
	b.emit(Instr{Op: OpRet, Dst: NoReg, A: val, B: NoReg})
	b.cur = nil
}

// RetVoid terminates the current block with no return value.
func (b *Builder) RetVoid() { b.Ret(NoReg) }

// Jmp terminates the current block with a jump to blk.
func (b *Builder) Jmp(blk *Block) {
	b.emit(Instr{Op: OpJmp, Dst: NoReg, A: NoReg, B: NoReg, Blk0: blk.Index})
	b.cur = nil
}

// Br terminates the current block branching on cond.
func (b *Builder) Br(cond Reg, then, els *Block) {
	b.emit(Instr{Op: OpBr, Dst: NoReg, A: cond, B: NoReg, Blk0: then.Index, Blk1: els.Index})
	b.cur = nil
}

// Switch terminates the current block with a multiway branch on v.
func (b *Builder) Switch(v Reg, def *Block, cases []SwitchCase) {
	b.emit(Instr{Op: OpSwitch, Dst: NoReg, A: v, B: NoReg, Blk0: def.Index, Cases: cases})
	b.cur = nil
}

// If builds a structured two-armed conditional. then and els run with the
// insertion point inside the respective arm; either may be nil for an empty
// arm. After If returns, the insertion point is at the join block.
func (b *Builder) If(cond Reg, then, els func()) {
	thenBlk := b.NewBlock("then")
	joinBlk := b.NewBlock("join")
	elsBlk := joinBlk
	if els != nil {
		elsBlk = b.NewBlock("else")
	}
	b.Br(cond, thenBlk, elsBlk)

	b.SetBlock(thenBlk)
	if then != nil {
		then()
	}
	if b.cur != nil {
		b.Jmp(joinBlk)
	}
	if els != nil {
		b.SetBlock(elsBlk)
		els()
		if b.cur != nil {
			b.Jmp(joinBlk)
		}
	}
	b.SetBlock(joinBlk)
}

// For builds a canonical counted loop:
//
//	for i := lo; i < hi; i += step { body(i) }
//
// lo, hi, and step are registers evaluated before the loop. The loop header
// holds the single exit branch, so taint sinks observe the comparison
// i < hi. For returns after positioning the insertion point at the exit.
func (b *Builder) For(lo, hi, step Reg, body func(i Reg)) {
	i := b.Mov(lo)
	header := b.NewBlock("for.header")
	bodyBlk := b.NewBlock("for.body")
	latch := b.NewBlock("for.latch")
	exit := b.NewBlock("for.exit")

	b.Jmp(header)
	b.SetBlock(header)
	cond := b.CmpLT(i, hi)
	b.Br(cond, bodyBlk, exit)

	b.SetBlock(bodyBlk)
	if body != nil {
		body(i)
	}
	if b.cur != nil {
		b.Jmp(latch)
	}
	b.SetBlock(latch)
	next := b.Add(i, step)
	b.MovTo(i, next)
	b.Jmp(header)

	b.SetBlock(exit)
}

// ForConst is For with literal bounds, emitting the constants first.
func (b *Builder) ForConst(lo, hi int64, body func(i Reg)) {
	l := b.Const(lo)
	h := b.Const(hi)
	s := b.Const(1)
	b.For(l, h, s, body)
}

// While builds a condition-controlled loop. cond is re-evaluated in the
// header each iteration and must return the condition register.
func (b *Builder) While(cond func() Reg, body func()) {
	header := b.NewBlock("while.header")
	bodyBlk := b.NewBlock("while.body")
	exit := b.NewBlock("while.exit")

	b.Jmp(header)
	b.SetBlock(header)
	c := cond()
	b.Br(c, bodyBlk, exit)

	b.SetBlock(bodyBlk)
	if body != nil {
		body()
	}
	if b.cur != nil {
		b.Jmp(header)
	}
	b.SetBlock(exit)
}

// Finish verifies the function, adds it to the module, and returns it.
// A still-open insertion block receives an implicit void return.
func (b *Builder) Finish() *Function {
	if b.done {
		panic(fmt.Sprintf("ir: Finish called twice on %q", b.fn.Name))
	}
	if b.cur != nil {
		b.RetVoid()
	}
	if err := Verify(b.fn); err != nil {
		panic(fmt.Sprintf("ir: invalid function %q: %v", b.fn.Name, err))
	}
	b.mod.AddFunc(b.fn)
	b.done = true
	return b.fn
}
