package interp

import (
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/scev"
)

// Program is the predecoded, execution-ready form of an ir.Module: every
// function flattened into a dense instruction array with branch targets
// resolved to instruction indices, loop latch/entry/exit effects precomputed
// per control-flow edge, call sites bound to decoded callees (or extern
// ordinals), and globals bound to ordinals. What a Program says about its
// module is immutable after Predecode, and it is safe for concurrent use by
// any number of machines — the batch runner shares one Program across all
// configurations of a sweep. Its two mutable members say nothing about the
// module: the pool of run arenas its machines recycle (arenas) and the sizing
// hints completed runs publish, both safe for concurrent use.
type Program struct {
	Mod *ir.Module

	funcs  []*dfunc
	byName map[string]int32
	// externs lists the distinct non-module call symbols; machines resolve
	// them against their Externs map once per run into a dense slot array.
	externs   []string
	externOrd map[string]int32
	// globalOrd maps a global name to its allocation ordinal (the position
	// in Mod.Globals whose base address the machine records at reset; for
	// duplicate names the last allocation wins, matching the reference
	// interpreter's map semantics).
	globalOrd map[string]int32
	numSites  int32
	// sums holds, per function, the call summary the bottom-up pass proved
	// (see summarize); the zero value means "run the activation".
	sums []summary
	// loopSums holds one loop summary per natural loop of the module (see
	// summarizeLoop), each function's in loop-ID order behind its
	// dfunc.loopSums; the zero value means "dispatch every iteration".
	// sumRegs is the backing store of the summaries' written-register lists.
	loopSums []loopSum
	sumRegs  []int32

	// arenas recycles the per-run memory of this program's machines (see
	// runArena): Machine.reset borrows from it and every exit of Run hands
	// back, so the runs of a sweep build their heap, shadow and engine
	// scratch once per worker. It is the one place run memory is recycled.
	// Being a sync.Pool it is emptied by the garbage collector: an idle
	// Program pins no arena.
	arenas sync.Pool

	// heapHint / shadowHint are the high-water heap and shadow sizes (in
	// cells) observed across completed runs of this program. They are the
	// cold-start sizing of an arena: a fresh one (an empty pool, a new
	// worker) and a recycled one that is too small are made at the hint in
	// one allocation instead of growing through doubling copies —
	// applications allocate incrementally, and for heap-heavy workloads the
	// repeated copy/clear traffic of a cold arena dominates the run. With
	// arenas recycled the hints no longer matter to a warm sweep, but they
	// stay: without them every run on a fresh arena pays the doubling
	// again, 2.7x on MILC (0.85 -> 2.2 ns per instruction with the pool
	// drained before each run) and 1.7x on the largest LULESH point. The
	// hints are monotone best-effort caches (concurrent sweeps publish with
	// atomics; a lost update only costs one more warm-up run), and a run
	// that stays smaller merely leaves capacity unused. loopHint /
	// branchHint are the same for the taint engine's loop and branch record
	// counts (see taint.Engine.Reserve).
	heapHint   atomic.Int64
	shadowHint atomic.Int64
	loopHint   atomic.Int64
	branchHint atomic.Int64
}

// noteMax raises hint to n.
func noteMax(hint *atomic.Int64, n int) {
	if v := int64(n); v > hint.Load() {
		hint.Store(v)
	}
}

// noteArenas records the arena high-water marks of a finished run, up to the
// pooling bound: a hint beyond it would size every later arena of the program
// out of the pool.
func (p *Program) noteArenas(heapLen, shadowLen int) {
	noteMax(&p.heapHint, min(heapLen, maxPooledCells))
	noteMax(&p.shadowHint, min(shadowLen, maxPooledCells))
}

// noteRecords records how many loop and branch records a finished tainted
// run created.
func (p *Program) noteRecords(loops, branches int) {
	noteMax(&p.loopHint, loops)
	noteMax(&p.branchHint, branches)
}

// Func returns the decoded function index for name, or -1.
func (p *Program) Func(name string) int32 {
	if i, ok := p.byName[name]; ok {
		return i
	}
	return -1
}

// NumFuncs returns the number of decoded functions.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// NumSummarized returns how many functions carry a call summary: calls to
// them cost the fast engine one dispatch instead of an activation.
func (p *Program) NumSummarized() int {
	n := 0
	for _, s := range p.sums {
		if s.n > 0 {
			n++
		}
	}
	return n
}

// NumLoopSummaries returns how many loops carry a loop summary: the fast
// engine dispatches a few of their iterations per entry and accounts for the
// rest in one step.
func (p *Program) NumLoopSummaries() int {
	n := 0
	for i := range p.loopSums {
		if p.loopSums[i].charge > 0 {
			n++
		}
	}
	return n
}

// edge-event kinds attached to decoded control-flow edges.
const (
	evNone uint8 = iota
	evLatch
	evEntry
)

// dinstr is one decoded instruction. Register operands are pre-narrowed,
// branch targets are instruction indices (tgt*) paired with the target block
// id (blk*, needed to close control scopes that join there) and the loop
// event the edge fires (evk*/evl*). aux indexes the per-function side tables
// for calls, branches, and switches. The struct is deliberately pointer-free
// (symbols live in the side tables): code arrays are the bulk of a decoded
// program and stay off the garbage collector's scan queue this way.
type dinstr struct {
	op         ir.Opcode
	evk0, evk1 uint8
	dst, a, b  int32
	tgt0, tgt1 int32
	blk0, blk1 int32
	evl0, evl1 int32
	aux        int32
	imm        int64
}

// dterm is the precomputed metadata of one conditional terminator (a branch,
// or the head of a dswitch): the source block, the control-scope join block
// (immediate post-dominator), and the loops it is an exit (taint sink) of.
// The common cases — no exit, one exit — live in the scalar next to joinBlk;
// a terminator that leaves several loops at once lists the further ones in
// dfunc.moreExits[more].
type dterm struct {
	block   int32
	joinBlk int32
	exit    int32
	more    int32
}

// noExit is the dterm.exit of a terminator that exits no loop, and the
// dterm.more of one that exits at most one.
const noExit int32 = -1

// dcase is one decoded switch arm (or the default) with its edge effects.
type dcase struct {
	val int64
	pc  int32
	blk int32
	evk uint8
	evl int32
}

// dswitch is the precomputed metadata of one switch terminator.
type dswitch struct {
	dterm
	cases []dcase
	def   dcase
}

// dcall is one pre-bound call site. callee >= 0 points at a decoded module
// function; otherwise externOrd names the machine extern slot. siteID is
// module-unique and keys the interned call-path tree. sumN > 0 copies the
// callee's summary onto a site of matching arity: an activation charges
// exactly sumN instructions and returns sumVal with an empty label, and can
// observe or record nothing else.
type dcall struct {
	sym       string
	siteID    int32
	callee    int32
	externOrd int32
	numParams int32
	args      []int32
	sumN      int64
	sumVal    Value
}

// loopMeta carries the identity of one func-local natural loop for lazy
// taint-record resolution.
type loopMeta struct {
	id     int32
	header int32
}

// dfunc is one decoded function.
type dfunc struct {
	fn        *ir.Function
	idx       int32
	name      string
	numParams int32
	numRegs   int32
	numBlocks int32
	code      []dinstr
	blockPC   []int32
	calls     []dcall
	branches  []dterm
	switches  []dswitch
	moreExits [][]int32
	loops     []loopMeta
	// loopSums is indexed like loops, and by the dterm.exit of a header test.
	loopSums []loopSum
	// unknownGlob names the unresolved global referenced at a pc (error
	// reporting only; resolved globals carry their ordinal in aux).
	unknownGlob map[int32]string
	// zeroRegs lists the registers that may be read before being written
	// on some path (definite-assignment analysis, see computeZeroRegs).
	// The IR contract is that unwritten registers read as zero, so a
	// pooled frame only needs to scrub these — typically a handful —
	// instead of memclr-ing the whole register and label banks per call.
	zeroRegs []int32
}

// Predecode flattens every function of mod for the fast engine. It is pure
// analysis — building CFGs, loop forests, and post-dominators exactly as the
// reference interpreter does per call, and classifying the loops — performed
// once per module.
func Predecode(mod *ir.Module) *Program {
	forests := cfg.ModuleForests(mod)
	return PredecodeForests(mod, forests, scev.AnalyzeForests(forests, nil))
}

// Compile does nothing. Its one caller is the cost ledger's interp.compile_ms
// probe, which times it; ROADMAP item 1(c) retires that probe and deletes
// both.
func Compile(*Program) {}

// PredecodeForests is Predecode over loop forests the caller already built
// (cfg.ModuleForests, one per function in FuncList order) and their static
// classification (scev.AnalyzeForests), whose counted loops are the
// candidates for loop summaries; both are only read.
func PredecodeForests(mod *ir.Module, forests []*cfg.Forest, static map[string]*scev.FuncClass) *Program {
	p := &Program{
		Mod:       mod,
		byName:    make(map[string]int32, len(mod.FuncList)),
		externOrd: make(map[string]int32),
		globalOrd: make(map[string]int32, len(mod.Globals)),
	}
	for i, g := range mod.Globals {
		p.globalOrd[g.Name] = int32(i)
	}
	numLoops, maxRegs := 0, 0
	for i, fn := range mod.FuncList {
		p.byName[fn.Name] = int32(i)
		numLoops += len(forests[i].Loops)
		maxRegs = max(maxRegs, fn.NumRegs)
	}
	p.sums = summarize(mod, p.byName)
	p.loopSums = make([]loopSum, numLoops)
	// Scratch of summarizeLoop, one mark per register of the widest function.
	marks := make([]uint8, maxRegs)
	base := 0
	for i, fn := range mod.FuncList {
		df := p.decodeFunc(fn, int32(i), forests[i])
		df.loopSums = p.loopSums[base : base+len(df.loops)]
		base += len(df.loops)
		if fc := static[fn.Name]; fc != nil {
			for _, l := range forests[i].Loops {
				if c := fc.Loops[l.ID].Counted; c != nil {
					df.loopSums[l.ID] = p.summarizeLoop(df, l, c, marks)
				}
			}
		}
		p.funcs = append(p.funcs, df)
	}
	return p
}

func (p *Program) externSlot(sym string) int32 {
	if o, ok := p.externOrd[sym]; ok {
		return o
	}
	o := int32(len(p.externs))
	p.externs = append(p.externs, sym)
	p.externOrd[sym] = o
	return o
}

func (p *Program) decodeFunc(fn *ir.Function, idx int32, loops *cfg.Forest) *dfunc {
	ipdom := cfg.PostDominators(loops.Graph)

	df := &dfunc{
		fn:        fn,
		idx:       idx,
		name:      fn.Name,
		numParams: int32(fn.NumParams),
		numRegs:   int32(fn.NumRegs),
		numBlocks: int32(len(fn.Blocks)),
		blockPC:   make([]int32, len(fn.Blocks)),
	}
	for _, l := range loops.Loops {
		df.loops = append(df.loops, loopMeta{id: int32(l.ID), header: int32(l.Header)})
	}

	// First pass: lay out block start pcs.
	pc := int32(0)
	for i, blk := range fn.Blocks {
		df.blockPC[i] = pc
		pc += int32(len(blk.Instrs))
	}
	df.code = make([]dinstr, 0, pc)

	term := func(b int) dterm {
		t := dterm{block: int32(b), joinBlk: int32(ipdom[b]), exit: noExit, more: noExit}
		for i, l := range loops.ExitLoops(b) {
			switch i {
			case 0:
				t.exit = int32(l.ID)
			case 1:
				t.more = int32(len(df.moreExits))
				df.moreExits = append(df.moreExits, []int32{int32(l.ID)})
			default:
				df.moreExits[t.more] = append(df.moreExits[t.more], int32(l.ID))
			}
		}
		return t
	}
	edge := func(from, to int) (uint8, int32) {
		kind, l := loops.ClassifyEdge(from, to)
		switch kind {
		case cfg.EdgeLatch:
			return evLatch, int32(l.ID)
		case cfg.EdgeEntry:
			return evEntry, int32(l.ID)
		}
		return evNone, 0
	}

	// Second pass: decode instructions with resolved targets.
	for bi, blk := range fn.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			d := dinstr{
				op:  in.Op,
				dst: int32(in.Dst), a: int32(in.A), b: int32(in.B),
				imm: in.Imm,
			}
			switch in.Op {
			case ir.OpJmp:
				d.tgt0 = df.blockPC[in.Blk0]
				d.blk0 = int32(in.Blk0)
				d.evk0, d.evl0 = edge(bi, in.Blk0)
			case ir.OpBr:
				d.tgt0, d.tgt1 = df.blockPC[in.Blk0], df.blockPC[in.Blk1]
				d.blk0, d.blk1 = int32(in.Blk0), int32(in.Blk1)
				d.evk0, d.evl0 = edge(bi, in.Blk0)
				d.evk1, d.evl1 = edge(bi, in.Blk1)
				d.aux = int32(len(df.branches))
				df.branches = append(df.branches, term(bi))
			case ir.OpSwitch:
				sw := dswitch{dterm: term(bi)}
				defEvk, defEvl := edge(bi, in.Blk0)
				sw.def = dcase{pc: df.blockPC[in.Blk0], blk: int32(in.Blk0), evk: defEvk, evl: defEvl}
				for _, c := range in.Cases {
					evk, evl := edge(bi, c.Block)
					sw.cases = append(sw.cases, dcase{
						val: c.Value, pc: df.blockPC[c.Block], blk: int32(c.Block),
						evk: evk, evl: evl,
					})
				}
				d.aux = int32(len(df.switches))
				df.switches = append(df.switches, sw)
			case ir.OpCall:
				dc := dcall{
					sym:       in.Sym,
					siteID:    p.numSites,
					callee:    -1,
					externOrd: -1,
					numParams: -1,
				}
				p.numSites++
				for _, a := range in.Args {
					dc.args = append(dc.args, int32(a))
				}
				if callee, ok := p.byName[in.Sym]; ok {
					dc.callee = callee
					dc.numParams = int32(p.Mod.FuncList[callee].NumParams)
					if len(in.Args) == int(dc.numParams) {
						dc.sumN, dc.sumVal = p.sums[callee].n, p.sums[callee].val
					}
				} else {
					dc.externOrd = p.externSlot(in.Sym)
				}
				d.aux = int32(len(df.calls))
				df.calls = append(df.calls, dc)
			case ir.OpGlobal:
				if o, ok := p.globalOrd[in.Sym]; ok {
					d.aux = o
				} else {
					d.aux = -1
					if df.unknownGlob == nil {
						df.unknownGlob = make(map[int32]string)
					}
					df.unknownGlob[int32(len(df.code))] = in.Sym
				}
			}
			df.code = append(df.code, d)
		}
	}
	df.zeroRegs = computeZeroRegs(fn)
	return df
}

// summary is what one activation of a straight-line constant function can
// be observed to do: charge n instructions (nested summarized calls
// included) and return val, 0 for a void return, with an empty label.
// n == 0 means the function has no summary.
type summary struct {
	n   int64
	val Value
}

// maxSummaryN caps a summary's instruction count. Wrappers that call
// wrappers multiply it, and the fast engine compares it against the fuel
// left; the cap keeps the sum far from overflow.
const maxSummaryN = 1 << 40

// summarize gives every function of mod it can a summary, callees before
// callers: a single-block function is examined once all the module
// functions it calls have been, so one on a call cycle, or reaching one, is
// never examined and keeps the zero summary.
func summarize(mod *ir.Module, byName map[string]int32) []summary {
	nf := len(mod.FuncList)
	sums := make([]summary, nf)
	pending := make([]int32, nf)
	callers := make([][]int32, nf)
	maxRegs := 0
	for i, fn := range mod.FuncList {
		if len(fn.Blocks) != 1 {
			continue // never summarized, so nothing has to precede it
		}
		maxRegs = max(maxRegs, fn.NumRegs)
		for ii := range fn.Blocks[0].Instrs {
			if in := &fn.Blocks[0].Instrs[ii]; in.Op == ir.OpCall {
				if callee, ok := byName[in.Sym]; ok {
					pending[i]++
					callers[callee] = append(callers[callee], int32(i))
				}
			}
		}
	}
	var ready []int32
	for i := range pending {
		if pending[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	// Scratch for the abstract evaluation, sized for the widest candidate.
	known := make([]bool, maxRegs)
	vals := make([]Value, maxRegs)
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if fn := mod.FuncList[i]; len(fn.Blocks) == 1 {
			sums[i] = summarizeFunc(mod, fn, byName, sums, known[:fn.NumRegs], vals[:fn.NumRegs])
		}
		for _, c := range callers[i] {
			if pending[c]--; pending[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return sums
}

// summarizeFunc evaluates the single block of fn abstractly over {constant,
// unknown}: register arithmetic, work and calls to summarized functions,
// ended by returning nothing or a register proved constant. Parameters are
// unknown, never-written registers read as the constant 0 (the IR
// contract), and two constants fold with the engine's own binop. Such a
// body opens no control scope, touches no memory and fires no record, and
// every register it proves constant carries an empty label: constants are
// born unlabelled, unions of empty labels are empty, and a single block has
// no control scope of its own to add. known and vals are caller-owned
// scratch, one slot per register.
func summarizeFunc(mod *ir.Module, fn *ir.Function, byName map[string]int32, sums []summary, known []bool, vals []Value) summary {
	for r := range known {
		known[r], vals[r] = r >= fn.NumParams, 0
	}
	valid := func(rs ...ir.Reg) bool {
		for _, r := range rs {
			if r < 0 || int(r) >= fn.NumRegs {
				return false
			}
		}
		return true
	}
	n := int64(0)
	instrs := fn.Blocks[0].Instrs
	for ii := range instrs {
		in := &instrs[ii]
		n++
		switch op := in.Op; {
		case op == ir.OpRet:
			if in.A == ir.NoReg {
				return summary{n: n}
			}
			if !valid(in.A) || !known[in.A] {
				return summary{}
			}
			return summary{n: n, val: vals[in.A]}
		case op == ir.OpWork:
		case op == ir.OpConst:
			if !valid(in.Dst) {
				return summary{}
			}
			known[in.Dst], vals[in.Dst] = true, in.Imm
		case op == ir.OpMov:
			if !valid(in.Dst, in.A) {
				return summary{}
			}
			known[in.Dst], vals[in.Dst] = known[in.A], vals[in.A]
		case op == ir.OpNeg || op == ir.OpNot:
			if !valid(in.Dst, in.A) {
				return summary{}
			}
			v := -vals[in.A]
			if op == ir.OpNot {
				v = boolVal(vals[in.A] == 0)
			}
			known[in.Dst], vals[in.Dst] = known[in.A], v
		case op >= ir.OpAdd && op <= ir.OpMax:
			if !valid(in.Dst, in.A, in.B) {
				return summary{}
			}
			k := known[in.A] && known[in.B]
			known[in.Dst] = k
			if k {
				vals[in.Dst] = binop(op, vals[in.A], vals[in.B])
			}
		case op == ir.OpCall:
			callee, ok := byName[in.Sym]
			if !ok || sums[callee].n == 0 || len(in.Args) != mod.FuncList[callee].NumParams ||
				!valid(in.Dst) || !valid(in.Args...) {
				return summary{}
			}
			if n += sums[callee].n; n > maxSummaryN {
				return summary{}
			}
			known[in.Dst], vals[in.Dst] = true, sums[callee].val
		default:
			return summary{}
		}
	}
	return summary{}
}

// loopSum is what the iterations of one counted innermost loop can be observed
// to do once the label state has settled (see Machine.skipLoop): charge
// instructions each (nested call summaries included), write registers
// writes times — the registers sumRegs[regs:regs+nregs] of the Program, each
// listed once — and step iv by ±step while `iv cmp bound` holds. charge == 0
// means the loop has no summary.
type loopSum struct {
	charge          int64
	iv, bound, step int32
	writes          int32
	regs, nregs     int32
	cmp             ir.Opcode
	sub             bool
}

// summarizeLoop gives the counted loop l of df, closed form c, a summary when
// an iteration is a fixed straight line whose effects depend on the iteration
// only through the induction register:
//
//   - the header is the compare and the branch on it, continuing on the true
//     edge, leaving no other loop on the false one, with a join outside l (so
//     no test closes a scope an earlier test opened);
//   - every other block ends in a jump and holds only register arithmetic,
//     constants, work and calls whose site carries a call summary — nothing
//     that touches memory, calls out, or can fail — so the blocks form one
//     cycle through the latch and each iteration charges and writes the same;
//   - every register an iteration reads is loop-invariant, the induction
//     register, or written earlier in the same iteration: no value or label
//     but the induction register's is carried from one iteration to the next.
//
// marks is caller-owned scratch, all zero between calls: 1 marks a register
// some iteration writes, 2 one the iteration walked so far has written.
func (p *Program) summarizeLoop(df *dfunc, l *cfg.Loop, c *scev.Counted, marks []uint8) loopSum {
	if len(df.fn.Blocks[l.Header].Instrs) != 2 {
		return loopSum{}
	}
	hpc := df.blockPC[l.Header]
	cmp, br := &df.code[hpc], &df.code[hpc+1]
	if br.op != ir.OpBr || br.a != cmp.dst || !l.Contains(int(br.blk0)) {
		return loopSum{}
	}
	if t := &df.branches[br.aux]; t.exit != int32(l.ID) || t.more != noExit || l.Contains(int(t.joinBlk)) {
		return loopSum{}
	}
	ls := loopSum{
		charge: 2,
		iv:     int32(c.IV), bound: int32(c.Bound), step: int32(c.Step),
		regs: int32(len(p.sumRegs)),
		cmp:  c.Cmp, sub: c.Sub,
	}
	note := func(r int32) bool {
		if r < 0 {
			return false
		}
		if marks[r] == 0 {
			marks[r] = 1
			p.sumRegs = append(p.sumRegs, r)
		}
		ls.writes++
		return true
	}
	// First walk: the shape of an iteration, its charge and its writes.
	ok := note(cmp.dst)
	blocks := 1
	for b := br.blk0; ok && b != int32(l.Header); {
		if blocks++; blocks > len(l.Blocks) || !l.Contains(int(b)) {
			ok = false
			break
		}
		pc := df.blockPC[b]
		for ; ok && !df.code[pc].op.IsTerm(); pc++ {
			switch in := &df.code[pc]; {
			case in.op == ir.OpWork:
			case in.op <= ir.OpMax: // constants, moves and register arithmetic
				ok = note(in.dst)
			case in.op == ir.OpCall && df.calls[in.aux].sumN > 0:
				ls.charge += df.calls[in.aux].sumN
				ok = note(in.dst)
			default:
				ok = false
			}
		}
		ls.charge += int64(pc - df.blockPC[b] + 1)
		ok = ok && df.code[pc].op == ir.OpJmp && ls.charge <= maxSummaryN
		b = df.code[pc].blk0
	}
	ls.nregs = int32(len(p.sumRegs)) - ls.regs
	ok = ok && blocks == len(l.Blocks) && marks[ls.iv] != 0 && marks[ls.bound] == 0 && marks[ls.step] == 0

	// Second walk: what an iteration reads, in execution order.
	reads := func(rs ...int32) bool {
		for _, r := range rs {
			if r >= 0 && r != ls.iv && marks[r] == 1 {
				return false // written by an earlier iteration: loop-carried
			}
		}
		return true
	}
	if ok {
		ok = reads(cmp.a, cmp.b)
		marks[cmp.dst] = 2
	}
	for b := br.blk0; ok && b != int32(l.Header); {
		pc := df.blockPC[b]
		for ; ok && !df.code[pc].op.IsTerm(); pc++ {
			in := &df.code[pc]
			switch in.op {
			case ir.OpConst:
			case ir.OpCall:
				ok = reads(df.calls[in.aux].args...)
			default:
				ok = reads(in.a, in.b)
			}
			if in.op != ir.OpWork {
				marks[in.dst] = 2
			}
		}
		b = df.code[pc].blk0
	}
	for _, r := range p.sumRegs[ls.regs:] {
		marks[r] = 0
	}
	if !ok {
		p.sumRegs = p.sumRegs[:ls.regs]
		return loopSum{}
	}
	return ls
}

// computeZeroRegs returns the registers of fn that may be read before being
// written on some execution path. It runs a definite-assignment dataflow:
// IN[b] is the register set assigned on every path reaching b (parameters
// are assigned at entry), and a use outside the running set marks the
// register as needing an explicit zero when its frame slot is recycled.
func computeZeroRegs(fn *ir.Function) []int32 {
	nb := len(fn.Blocks)
	words := (fn.NumRegs + 63) / 64
	newSet := func(fill bool) []uint64 {
		s := make([]uint64, words)
		if fill {
			for i := range s {
				s[i] = ^uint64(0)
			}
		}
		return s
	}
	in := make([][]uint64, nb)
	for b := range in {
		in[b] = newSet(b != 0)
	}
	for p := 0; p < fn.NumParams; p++ {
		in[0][p/64] |= 1 << uint(p%64)
	}

	// defs per block and successor lists, both straight off the IR.
	defs := make([][]uint64, nb)
	succs := make([][]int, nb)
	for b, blk := range fn.Blocks {
		defs[b] = newSet(false)
		for ii := range blk.Instrs {
			ins := &blk.Instrs[ii]
			if ins.Dst != ir.NoReg {
				defs[b][int(ins.Dst)/64] |= 1 << uint(int(ins.Dst)%64)
			}
			switch ins.Op {
			case ir.OpJmp:
				succs[b] = append(succs[b], ins.Blk0)
			case ir.OpBr:
				succs[b] = append(succs[b], ins.Blk0, ins.Blk1)
			case ir.OpSwitch:
				succs[b] = append(succs[b], ins.Blk0)
				for _, c := range ins.Cases {
					succs[b] = append(succs[b], c.Block)
				}
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for b := 0; b < nb; b++ {
			out := newSet(false)
			copy(out, in[b])
			for i := range out {
				out[i] |= defs[b][i]
			}
			for _, s := range succs[b] {
				for i := range out {
					if nv := in[s][i] & out[i]; nv != in[s][i] {
						in[s][i] = nv
						changed = true
					}
				}
			}
		}
	}

	need := newSet(false)
	running := newSet(false)
	for b, blk := range fn.Blocks {
		copy(running, in[b])
		use := func(r ir.Reg) {
			if r == ir.NoReg {
				return
			}
			if running[int(r)/64]&(1<<uint(int(r)%64)) == 0 {
				need[int(r)/64] |= 1 << uint(int(r)%64)
			}
		}
		for ii := range blk.Instrs {
			ins := &blk.Instrs[ii]
			use(ins.A)
			use(ins.B)
			for _, a := range ins.Args {
				use(a)
			}
			if ins.Dst != ir.NoReg {
				running[int(ins.Dst)/64] |= 1 << uint(int(ins.Dst)%64)
			}
		}
	}

	var out []int32
	for r := 0; r < fn.NumRegs; r++ {
		if need[r/64]&(1<<uint(r%64)) != 0 {
			out = append(out, int32(r))
		}
	}
	return out
}
