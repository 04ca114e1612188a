// Package interp executes ir modules. It is the dynamic substrate of
// Perf-Taint: when a taint engine is attached, every instruction propagates
// shadow labels from operands to results (data flow), conditional branches
// with tainted conditions open control-flow taint scopes bounded by the
// branch's immediate post-dominator, loop exit branches act as taint sinks,
// and loop back edges are counted.
//
// Two engines implement these semantics. The default fast engine is the
// production tier — every analysis, sweep and daemon request runs on it. It
// executes a predecoded Program: dense per-function instruction arrays with
// resolved branch targets and per-edge loop effects, pooled call frames, and
// interned call paths whose taint records resolve to cached pointers (see
// predecode.go and fast.go). Predecode also gives every straight-line
// function whose return value it can prove constant — the accessor shape,
// and wrappers of such functions — a call summary: the exact number of
// instructions one activation charges and the constant it returns. Such a
// callee can open no control scope, touch no memory and fire no record, and
// its return label is empty, so the fast engine executes a call to it as one
// dispatch that charges the callee's instruction count and writes the
// constant with the caller-side label bookkeeping of a returning call. A
// summary is taken only when the remaining fuel covers the whole callee;
// otherwise the activation runs, so an abort lands on the oracle's
// instruction.
//
// A loop summary is the same bargain for iterations. Predecode gives one to
// every counted innermost loop (scev.Counted: the header's compare of a basic
// induction register against an invariant bound is the only exit) whose body
// is a straight line of register arithmetic, work and summarized calls that
// reads nothing an earlier iteration wrote except the induction register. At
// a passing header test with r >= 3 iterations left (scev.Trips on the three
// live registers), the fast engine skips r-1 of them in one step — the
// induction register, the fuel, the write sequence, the loop record's
// iteration count and the branch record's taken count advance by exactly
// what dispatching them would have — and runs the last iteration and the
// failing test through the ordinary arms. A loop summary is unobservable: it
// fires only once the labels of every register the loop writes were equal at
// two consecutive header tests of the entry, all of them born (from there on
// an iteration repeats the previous one label for label), or when no engine
// is attached and no label moves at all; and, like a call summary, only when
// the remaining fuel covers every skipped instruction. Result.Summarized
// counts the instructions both kinds of summary charged without dispatching.
//
// Control-flow taint costs the fast engine O(1) per register write, store
// and taken edge. The activation's scope stack (ctlState, fast.go) carries a
// summary: the union of the non-loop scopes' labels, the union of all, the
// smallest and largest opening sequence of the loop-exit scopes, and a
// 64-bit filter of join blocks. The scope summary is derived state — only
// push, closeAt and reset write it; every read is O(1) except a born that
// straddles two loop scopes, which scans the stack. ctlState.write is the
// fast engine's one register-write path.
//
// A run borrows its memory. Heap, shadow, the global table and the fast
// engine's scratch (frames, interned call paths, record caches) form a run
// arena that Machine.reset takes from the pool of the Program the run
// executes on and every exit of Run hands back — zero up to its capacity and
// without a reference to the run that used it — so the runs of a sweep build
// this memory once per worker, whichever machines they run on (see
// runArena).
//
// The original tree-walking interpreter is kept behind Machine.Mode ==
// ModeReference as the semantic oracle; the differential and fuzz harnesses
// prove both engines produce identical observables.
package interp

import (
	"errors"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/taint"
)

// Value is the machine word; the IR is integer-only, which suffices for
// performance modeling where only loop bounds influence the metrics.
type Value = int64

// ErrFuel is returned when execution exceeds the instruction budget.
var ErrFuel = errors.New("interp: fuel exhausted")

// ExternCall carries the state visible to an extern (library) function.
type ExternCall struct {
	M         *Machine
	Name      string
	Args      []Value
	ArgLabels []taint.Label
	CallPath  string
	// RetLabel is the taint label attached to the returned value; externs
	// acting as taint sources set it.
	RetLabel taint.Label

	// recCache, when set by the fast engine, points at the interned call
	// path's library-record slot so RecordLibCall is O(1) after the first
	// call per calling context.
	recCache **taint.LibCallRecord
}

// RecordLibCall records one execution of this library call with the given
// dependency labels. Under the fast engine the record resolution is cached
// on the interned call path; under the reference engine it falls back to
// the string-keyed map, producing identical records either way.
func (c *ExternCall) RecordLibCall(eng *taint.Engine, labels taint.Label) {
	var r *taint.LibCallRecord
	if c.recCache != nil {
		r = *c.recCache
	}
	if r == nil {
		r = eng.LibCallRec(taint.CallerFromPath(c.CallPath, c.Name), c.Name, c.CallPath)
		if c.recCache != nil {
			*c.recCache = r
		}
	}
	r.Labels |= labels
	r.Count++
}

// Extern implements a library function outside the IR module (e.g. the MPI
// routines provided through the library database).
type Extern func(c *ExternCall) (Value, error)

type funcInfo struct {
	fn    *ir.Function
	graph *cfg.Graph
	loops *cfg.Forest
	ipdom []int
	// exitsAt[block] lists loops for which the block terminator is an exit
	// branch (the taint sinks).
	exitsAt map[int][]*cfg.Loop
	// latchOf[from<<32|to] is the loop whose back edge is from->to.
	latchOf map[uint64]*cfg.Loop
}

// Mode selects the execution engine of a Machine.
type Mode uint8

const (
	// ModeFast (the default) runs the predecoded dense-dispatch engine:
	// per-function instruction arrays with pre-resolved branch targets and
	// loop effects, pooled frames, and interned call paths with O(1) taint
	// records. The differential test harness proves it produces identical
	// observables to the reference engine.
	ModeFast Mode = iota
	// ModeReference runs the original tree-walking interpreter, kept as
	// the semantic oracle for differential testing.
	ModeReference
)

// String names the engine the way test and benchmark rows spell it.
func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeReference:
		return "reference"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Machine executes functions of one module with optional taint and tracing.
type Machine struct {
	Mod     *ir.Module
	Externs map[string]Extern
	Taint   *taint.Engine
	// Fuel bounds the number of executed instructions (0 = default 500M).
	Fuel int64
	// Mode selects the fast engine (default) or the reference interpreter.
	Mode Mode
	// Prog, when set, is the shared predecoded program for Mod (see
	// Predecode); batch runs cache one Program across all machines. When
	// nil the fast engine predecodes lazily and caches per machine.
	Prog *Program

	// The embedded arena is the memory of the run in progress, borrowed
	// from the program's pool by reset and handed back by release: between
	// runs it is the zero value and borrowed, its header in the pool, is nil.
	runArena
	borrowed *runArena

	infoCache map[string]*funcInfo
	fuel      int64

	progOwned *Program
	// labeling records whether the current run maintains register label
	// banks at all (taint engine attached or argument labels supplied).
	labeling bool
	// summarized accumulates Result.Summarized over the run, in the two
	// summary arms of the dispatch loop only. everyIteration is the tests'
	// hook that keeps loop summaries from firing.
	summarized     int64
	everyIteration bool
}

// runArena is everything a run allocates that does not outlive it: the heap
// and its shadow, the global table, and the fast engine's scratch (see
// fast.go). Runs of one Program recycle arenas through Program.arenas, so a
// sweep pays for this memory once per worker instead of once per design
// point.
//
// An arena enters the pool carrying nothing of the run that used it: heap
// and shadow are zero up to their capacity (release clears the prefix the
// run used, and a fresh or regrown slice is zero beyond its length), so
// alloc and growShadow extend them without clearing; every slot that held a
// taint record, an extern closure or the machine is nil. What stays is
// capacity, and the interned call-path tree with its site cache: both are a
// function of the program and the entry alone.
type runArena struct {
	heap []Value
	// shadow carries the heap labels for the prefix [0, len(shadow)); cells
	// beyond it are untainted. It grows lazily to the highest address that
	// has ever held a non-empty label (see growShadow).
	shadow  []taint.Label
	globals map[string]Value
	active  map[string]int // recursion detection of the reference engine

	// Fast-engine state (see fast.go).
	globalBase  []Value
	externSlots []Extern
	activeN     []int32
	frames      []*fastFrame
	paths       []*pathNode
	branchRecs  [][]*taint.BranchRecord
	// settled is the loop summaries' label snapshot.
	settled settledScratch
	// siteCache memoizes, per module-unique call site, the last
	// (parent path, child path) resolution packed as parent<<32|child;
	// child indices are never 0 (the root is index 0), so 0 means empty.
	siteCache []int64
}

// maxPooledCells is the heap or shadow capacity, in cells, above which
// release drops an arena instead of pooling it (32 MiB each): the pool keeps
// what a sweep's next point will use again, not the largest allocation a
// spec ever provoked. maxPooledPaths bounds the call-path tree the same way.
const (
	maxPooledCells = 1 << 22
	maxPooledPaths = 1 << 14
)

// NewMachine prepares a machine for module m. Externs and Taint may be set
// afterwards, before Run.
func NewMachine(m *ir.Module) *Machine {
	return &Machine{
		Mod:       m,
		Externs:   make(map[string]Extern),
		infoCache: make(map[string]*funcInfo),
	}
}

// Heap returns the heap image of the run in progress (externs use it for
// message payloads). The heap belongs to the run: once Run has returned it is
// back in the program's pool and Heap is empty.
func (m *Machine) Heap() []Value { return m.heap }

// LoadMem reads heap cell addr with its label. Addresses beyond the lazily
// sized shadow prefix are untainted by construction. Like Heap it is for
// externs, during a run: afterwards every address is out of bounds.
func (m *Machine) LoadMem(addr Value) (Value, taint.Label, error) {
	if addr < 0 || addr >= Value(len(m.heap)) {
		return 0, taint.None, fmt.Errorf("interp: load out of bounds at %d (heap %d)", addr, len(m.heap))
	}
	l := taint.None
	if addr < Value(len(m.shadow)) {
		l = m.shadow[addr]
	}
	return m.heap[addr], l, nil
}

// StoreMem writes heap cell addr with an explicit label (taint source path
// for externs like MPI_Comm_size).
func (m *Machine) StoreMem(addr, v Value, l taint.Label) error {
	if addr < 0 || addr >= Value(len(m.heap)) {
		return fmt.Errorf("interp: store out of bounds at %d (heap %d)", addr, len(m.heap))
	}
	m.heap[addr] = v
	if addr < Value(len(m.shadow)) {
		m.shadow[addr] = l
	} else if l != taint.None {
		m.growShadow(addr, l)
	}
	return nil
}

// growShadow extends the shadow heap to cover addr and records l there.
// The shadow tracks only the heap prefix that has ever held a non-empty
// label: untainted runs never materialize it, and tainted runs size it to
// the highest tainted address instead of mirroring the full heap — the
// mask widening to uint64 made a heap-sized mirror measurably expensive
// (allocator and GC traffic), and most heap cells never carry taint.
func (m *Machine) growShadow(addr Value, l taint.Label) {
	need := int(addr) + 1
	if need <= cap(m.shadow) {
		// An arena is zero beyond its length (see runArena).
		m.shadow = m.shadow[:need]
	} else {
		newCap := 2 * cap(m.shadow)
		if p := m.program(); p != nil {
			if hint := int(p.shadowHint.Load()); hint > newCap {
				newCap = hint
			}
		}
		if newCap < need {
			newCap = need
		}
		if newCap < 64 {
			newCap = 64
		}
		ns := make([]taint.Label, need, newCap)
		copy(ns, m.shadow)
		m.shadow = ns
	}
	m.shadow[addr] = l
}

// GlobalAddr returns the base address of global name.
func (m *Machine) GlobalAddr(name string) (Value, error) {
	a, ok := m.globals[name]
	if !ok {
		return 0, fmt.Errorf("interp: unknown global %q", name)
	}
	return a, nil
}

func (m *Machine) alloc(size Value) (Value, error) {
	if size < 0 {
		return 0, fmt.Errorf("interp: negative allocation %d", size)
	}
	const maxHeap = 1 << 28
	base := Value(len(m.heap))
	need := int64(len(m.heap)) + size
	if need > maxHeap {
		return 0, fmt.Errorf("interp: heap limit exceeded (%d cells)", need)
	}
	// Grow with explicit doubling: applications allocate incrementally, and
	// the default append growth factor for large slices copies the heap far
	// more often. An arena is zero beyond its length (see runArena), so
	// extending into capacity clears nothing. The shadow heap is not grown
	// here — see growShadow.
	if int64(cap(m.heap)) < need {
		newCap := 2 * int64(cap(m.heap))
		if newCap < need {
			newCap = need
		}
		if newCap < 1024 {
			newCap = 1024
		}
		heap := make([]Value, len(m.heap), newCap)
		copy(heap, m.heap)
		m.heap = heap
	}
	m.heap = m.heap[:need]
	return base, nil
}

// program returns the predecoded program backing this machine, if any.
func (m *Machine) program() *Program {
	if m.Prog != nil {
		return m.Prog
	}
	return m.progOwned
}

// reset starts a run: it borrows an arena from the pool of p, the program the
// run executes on, and lays out the globals. Under the reference engine a
// machine may have no program; its arena is then fresh and nobody's
// afterwards.
func (m *Machine) reset(p *Program) error {
	m.borrowed, m.runArena = nil, runArena{}
	if p != nil {
		a, _ := p.arenas.Get().(*runArena)
		if a == nil {
			a = new(runArena)
		}
		m.borrowed, m.runArena = a, *a
		*a = runArena{}
		// Size a fresh (or outgrown) heap from the program's high-water hint
		// so the run allocates once instead of copying through doubling
		// growth.
		if hint := p.heapHint.Load(); int64(cap(m.heap)) < hint {
			m.heap = make([]Value, 0, hint)
		}
		if m.Taint != nil {
			m.Taint.Reserve(int(p.loopHint.Load()), int(p.branchHint.Load()))
		}
	}
	if m.globals == nil {
		m.globals = make(map[string]Value, len(m.Mod.Globals))
	}
	m.fuel = m.Fuel
	if m.fuel == 0 {
		m.fuel = 500_000_000
	}
	m.summarized = 0
	for _, g := range m.Mod.Globals {
		base, err := m.alloc(g.Size)
		if err != nil {
			m.release(p, true)
			return err
		}
		m.globals[g.Name] = base
	}
	return nil
}

// release ends a run, on every exit of Run: it publishes the run's sizes as
// hints, restores the arena's invariant (see runArena) and hands it back to
// p's pool, so the machine keeps neither the memory nor any record of the
// run. aborted says the run ended in an error, its frames' epochs not
// advanced (see scrubEpochs). Arenas beyond the pooling bounds are dropped.
func (m *Machine) release(p *Program, aborted bool) {
	a := m.borrowed
	m.borrowed = nil
	if p != nil {
		p.noteArenas(len(m.heap), len(m.shadow))
		if m.Taint != nil {
			p.noteRecords(len(m.Taint.Loops), len(m.Taint.Branches))
		}
		if cap(m.heap) <= maxPooledCells && cap(m.shadow) <= maxPooledCells {
			clear(m.heap)
			m.heap = m.heap[:0]
			clear(m.shadow)
			m.shadow = m.shadow[:0]
			clear(m.globals)
			clear(m.active)
			m.releaseFast(aborted)
			*a = m.runArena
			p.arenas.Put(a)
		}
	}
	m.runArena = runArena{}
}

func (m *Machine) info(f *ir.Function) *funcInfo {
	if fi, ok := m.infoCache[f.Name]; ok {
		return fi
	}
	g := cfg.Build(f)
	fi := &funcInfo{
		fn:      f,
		graph:   g,
		loops:   cfg.FindLoops(g),
		ipdom:   cfg.PostDominators(g),
		exitsAt: make(map[int][]*cfg.Loop),
		latchOf: make(map[uint64]*cfg.Loop),
	}
	for _, l := range fi.loops.Loops {
		for _, e := range l.ExitBranches {
			fi.exitsAt[e.Block] = append(fi.exitsAt[e.Block], l)
		}
		for _, latch := range l.Latches {
			fi.latchOf[uint64(latch)<<32|uint64(uint32(l.Header))] = l
		}
	}
	m.infoCache[f.Name] = fi
	return fi
}

// Result of a completed run.
type Result struct {
	Value Value
	Label taint.Label
	// Instructions executed (fuel consumed).
	Instructions int64
	// Summarized is the part of Instructions the fast engine charged without
	// dispatching: the bodies of summarized callees and the skipped
	// iterations of summarized loops. The reference engine dispatches
	// everything.
	Summarized int64
}

// Run executes entry with the given arguments; argLabels taints the formal
// parameters (the paper's register_variable sources) and may be nil.
//
// The memory of the run — heap, shadow, globals, engine scratch — is borrowed
// from the program's arena pool and returned on every exit, result or error:
// after Run the machine holds no heap and no reference to the records the
// run filled in Taint.
//
// On an execution error the returned Result is non-nil with Instructions
// set to the fuel consumed up to the abort, so callers can account for
// truncated runs (most usefully with ErrFuel); Value and Label are zero.
func (m *Machine) Run(entry string, args []Value, argLabels []taint.Label) (*Result, error) {
	if m.Mode == ModeFast {
		return m.runFast(entry, args, argLabels)
	}
	fn, ok := m.Mod.Funcs[entry]
	if !ok {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	if len(args) != fn.NumParams {
		return nil, fmt.Errorf("interp: %q wants %d args, got %d", entry, fn.NumParams, len(args))
	}
	p := m.program()
	if err := m.reset(p); err != nil {
		return nil, err
	}
	if m.active == nil {
		m.active = make(map[string]int)
	}
	startFuel := m.fuel
	v, l, err := m.call(fn, args, argLabels, taint.None, entry)
	m.release(p, err != nil)
	if err != nil {
		return &Result{Instructions: startFuel - m.fuel}, err
	}
	return &Result{Value: v, Label: l, Instructions: startFuel - m.fuel}, nil
}

// ctlScope is one open control-dependence region. Scopes opened by ordinary
// branches (algorithm selection) taint every write until the branch's
// immediate post-dominator. Scopes opened by loop-exit branches taint
// memory stores and loop-carried registers — registers that existed before
// the loop began — matching the paper's regElemSize example, where only
// values accumulated across iterations depend on the iteration count, while
// per-iteration temporaries (recomputed loop bounds, call results) do not.
type ctlScope struct {
	join     int
	label    taint.Label
	loopExit bool
	openSeq  int
}

func (m *Machine) call(fn *ir.Function, args []Value, argLabels []taint.Label, ctlBase taint.Label, path string) (Value, taint.Label, error) {
	if m.active[fn.Name] > 0 && m.Taint != nil {
		m.Taint.WarnRecursion(fn.Name)
	}
	m.active[fn.Name]++
	defer func() { m.active[fn.Name]-- }()

	fi := m.info(fn)
	regs := make([]Value, fn.NumRegs)
	labels := make([]taint.Label, fn.NumRegs)
	copy(regs, args)
	if argLabels != nil {
		copy(labels, argLabels)
	}

	tainting := m.Taint != nil
	cflow := tainting && m.Taint.ControlFlow

	// born[r] is the write sequence at which register r was first defined
	// (-1 = not yet); parameters exist from sequence 0.
	var born []int
	writeSeq := 1
	if cflow {
		born = make([]int, fn.NumRegs)
		for i := range born {
			born[i] = -1
		}
		for i := 0; i < fn.NumParams; i++ {
			born[i] = 0
		}
	}

	var ctl []ctlScope

	// regCtl computes the control label applicable to a register write:
	// every non-loop scope, plus loop scopes for which the destination is
	// loop-carried (born before the scope opened).
	regCtl := func(dst ir.Reg) taint.Label {
		l := taint.None
		for _, s := range ctl {
			if !s.loopExit || (born[dst] >= 0 && born[dst] < s.openSeq) {
				l |= s.label
			}
		}
		return l
	}
	// memCtl computes the control label applicable to a store: all scopes
	// plus the control context inherited from the caller.
	memCtl := func() taint.Label {
		l := ctlBase
		for _, s := range ctl {
			l |= s.label
		}
		return l
	}

	writeLabel := func(dst ir.Reg, l taint.Label) {
		if !tainting {
			return
		}
		if cflow {
			l |= regCtl(dst)
			if born[dst] < 0 {
				born[dst] = writeSeq
			}
			writeSeq++
		}
		labels[dst] = l
	}

	blockIdx := 0
	prevBlock := -1
	for {
		// Close control scopes whose join block we reached.
		if cflow && len(ctl) > 0 {
			n := 0
			for _, s := range ctl {
				if s.join != blockIdx {
					ctl[n] = s
					n++
				}
			}
			ctl = ctl[:n]
		}
		// Loop events: back edge and entry detection.
		if tainting && prevBlock >= 0 {
			if l, ok := fi.latchOf[uint64(prevBlock)<<32|uint64(uint32(blockIdx))]; ok {
				m.Taint.RecordIteration(fn.Name, l.ID, l.Header, path)
			} else if l := fi.loops.ByHeader[blockIdx]; l != nil && !l.Contains(prevBlock) {
				m.Taint.RecordEntry(fn.Name, l.ID, l.Header, path)
			}
		}

		blk := fn.Blocks[blockIdx]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			m.fuel--
			if m.fuel < 0 {
				return 0, taint.None, ErrFuel
			}
			switch in.Op {
			case ir.OpConst:
				regs[in.Dst] = in.Imm
				writeLabel(in.Dst, taint.None)
			case ir.OpMov:
				regs[in.Dst] = regs[in.A]
				writeLabel(in.Dst, labels[in.A])
			case ir.OpNeg:
				regs[in.Dst] = -regs[in.A]
				writeLabel(in.Dst, labels[in.A])
			case ir.OpNot:
				if regs[in.A] == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
				writeLabel(in.Dst, labels[in.A])
			case ir.OpLoad:
				v, l, err := m.LoadMem(regs[in.A] + in.Imm)
				if err != nil {
					return 0, taint.None, fmt.Errorf("%s: %w", fn.Name, err)
				}
				regs[in.Dst] = v
				if tainting {
					// Address taint flows to the loaded value as well.
					writeLabel(in.Dst, l|labels[in.A])
				}
			case ir.OpStore:
				addr := regs[in.A] + in.Imm
				l := taint.None
				if tainting {
					l = labels[in.B] | labels[in.A]
					if cflow {
						l |= memCtl()
					}
				}
				if err := m.StoreMem(addr, regs[in.B], l); err != nil {
					return 0, taint.None, fmt.Errorf("%s: %w", fn.Name, err)
				}
			case ir.OpAlloc:
				base, err := m.alloc(regs[in.A])
				if err != nil {
					return 0, taint.None, fmt.Errorf("%s: %w", fn.Name, err)
				}
				regs[in.Dst] = base
				writeLabel(in.Dst, taint.None)
			case ir.OpGlobal:
				a, err := m.GlobalAddr(in.Sym)
				if err != nil {
					return 0, taint.None, fmt.Errorf("%s: %w", fn.Name, err)
				}
				regs[in.Dst] = a
				writeLabel(in.Dst, taint.None)
			case ir.OpCall:
				childCtl := taint.None
				if cflow {
					childCtl = memCtl()
				}
				v, l, err := m.dispatch(in, regs, labels, childCtl, path)
				if err != nil {
					return 0, taint.None, err
				}
				regs[in.Dst] = v
				writeLabel(in.Dst, l)
			case ir.OpWork:
				// Abstract work is a no-op for the analysis; it only counts
				// toward fuel.
			case ir.OpRet:
				if in.A == ir.NoReg {
					return 0, taint.None, nil
				}
				// The returned register's label already reflects every
				// control-dependent write that produced it.
				return regs[in.A], labels[in.A], nil
			case ir.OpJmp:
				prevBlock = blockIdx
				blockIdx = in.Blk0
			case ir.OpBr:
				cond := regs[in.A] != 0
				condLabel := labels[in.A]
				if tainting {
					exits := fi.exitsAt[blockIdx]
					for _, l := range exits {
						m.Taint.RecordLoopExit(fn.Name, l.ID, l.Header, path, condLabel)
					}
					m.Taint.RecordBranch(fn.Name, blockIdx, condLabel, cond, len(exits) > 0)
					if cflow && condLabel != taint.None {
						join := fi.ipdom[blockIdx]
						// Joins at the virtual exit (== len blocks) never
						// match a block index, keeping the scope open until
						// return, which is the conservative behaviour.
						ctl = append(ctl, ctlScope{
							join: join, label: condLabel,
							loopExit: len(exits) > 0, openSeq: writeSeq,
						})
					}
				}
				prevBlock = blockIdx
				if cond {
					blockIdx = in.Blk0
				} else {
					blockIdx = in.Blk1
				}
			case ir.OpSwitch:
				v := regs[in.A]
				condLabel := labels[in.A]
				target := in.Blk0
				for _, cse := range in.Cases {
					if cse.Value == v {
						target = cse.Block
						break
					}
				}
				if tainting {
					exits := fi.exitsAt[blockIdx]
					for _, l := range exits {
						m.Taint.RecordLoopExit(fn.Name, l.ID, l.Header, path, condLabel)
					}
					if cflow && condLabel != taint.None {
						ctl = append(ctl, ctlScope{
							join: fi.ipdom[blockIdx], label: condLabel,
							loopExit: len(exits) > 0, openSeq: writeSeq,
						})
					}
				}
				prevBlock = blockIdx
				blockIdx = target
			default:
				a, b := regs[in.A], Value(0)
				la, lb := labels[in.A], taint.None
				if in.B != ir.NoReg {
					b = regs[in.B]
					lb = labels[in.B]
				}
				regs[in.Dst] = binop(in.Op, a, b)
				if tainting {
					writeLabel(in.Dst, la|lb)
				} else {
					writeLabel(in.Dst, taint.None)
				}
			}
			if in.Op.IsTerm() {
				if in.Op == ir.OpRet {
					panic("unreachable")
				}
				break
			}
		}
	}
}

func (m *Machine) dispatch(in *ir.Instr, regs []Value, labels []taint.Label, ctlBase taint.Label, path string) (Value, taint.Label, error) {
	args := make([]Value, len(in.Args))
	argLabels := make([]taint.Label, len(in.Args))
	for i, a := range in.Args {
		args[i] = regs[a]
		argLabels[i] = labels[a]
	}
	childPath := path + "/" + in.Sym
	if callee, ok := m.Mod.Funcs[in.Sym]; ok {
		if len(args) != callee.NumParams {
			return 0, taint.None, fmt.Errorf("interp: call %s with %d args, wants %d", in.Sym, len(args), callee.NumParams)
		}
		return m.call(callee, args, argLabels, ctlBase, childPath)
	}
	ext, ok := m.Externs[in.Sym]
	if !ok {
		return 0, taint.None, fmt.Errorf("interp: unresolved call target %q", in.Sym)
	}
	c := &ExternCall{M: m, Name: in.Sym, Args: args, ArgLabels: argLabels, CallPath: childPath}
	v, err := ext(c)
	if err != nil {
		return 0, taint.None, fmt.Errorf("extern %s: %w", in.Sym, err)
	}
	return v, c.RetLabel, nil
}

func binop(op ir.Opcode, a, b Value) Value {
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
	case ir.OpCmpEQ:
		return boolVal(a == b)
	case ir.OpCmpNE:
		return boolVal(a != b)
	case ir.OpCmpLT:
		return boolVal(a < b)
	case ir.OpCmpLE:
		return boolVal(a <= b)
	case ir.OpCmpGT:
		return boolVal(a > b)
	case ir.OpCmpGE:
		return boolVal(a >= b)
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
	default:
		panic(fmt.Sprintf("interp: unhandled opcode %v", op))
	}
}

func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}
