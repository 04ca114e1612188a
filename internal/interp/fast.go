package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/scev"
	"repro/internal/taint"
)

// pathNode is one interned calling context. Nodes form a tree keyed by
// module-unique call-site IDs; each node renders its path string exactly
// once and caches the taint records resolved for this context, making the
// per-event bookkeeping of loop iterations, entries, exits, and library
// calls O(1) slice/pointer updates with zero allocation on the hot loop.
// Two sites with the same caller and callee produce distinct nodes whose
// lazily resolved records alias the same engine entry, preserving the
// reference engine's string-keyed aggregation. The tree belongs to the run
// arena and outlives the run — path strings and children depend on the
// program and the entry alone — while the cached records are the run's and
// are dropped when the arena is released.
type pathNode struct {
	str   string
	fnIdx int32
	// children maps call-site IDs to interned child contexts. Contexts fan
	// out over a handful of sites in practice, so a move-to-front slice
	// scan beats hashing the key; a hot site resolves on the first probe.
	children []pathChild
	// loopRecs caches, per func-local loop, the engine record for this
	// context; entries resolve lazily on the first event so that record
	// creation order matches the reference interpreter exactly.
	loopRecs []*taint.LoopRecord
	// libRec caches the library-call record when this node is an extern
	// call tail.
	libRec *taint.LibCallRecord
}

// pathChild is one interned child context of a pathNode.
type pathChild struct {
	site int32
	id   int32
}

// fastFrame is a reusable activation record. Frames are pooled per call
// depth, so steady-state execution allocates nothing per call: register and
// label banks are re-sliced and zeroed, the control-taint state keeps its
// born bank and scope-stack capacity, and the extern scratch buffers and
// ExternCall header are reused.
type fastFrame struct {
	regs      []Value
	labels    []taint.Label
	args      []Value
	argLabels []taint.Label
	ext       ExternCall
	// cs is the control-taint state of the activation on this frame.
	cs ctlState
}

// ctlState carries the control-flow-taint state of one activation: the
// stack of open control scopes, the write sequence, and born, the sequence
// at which each register was first written. Its methods replace the per-call
// writeLabel/regCtl/memCtl closures of the reference interpreter. Labels are
// parameter masks, so every join below is a bare OR.
//
// plain, all, loopMin, loopMax and joins summarize the scope stack. They are
// derived state: only push, closeAt and reset write them, and every read of
// the stack goes through them in O(1) except a born that straddles two loop
// scopes (write). Without control flow nothing is ever pushed, so the
// summary stays zero and every read answers "no control label".
type ctlState struct {
	ctl      []ctlScope
	born     []int
	writeSeq int
	// seqBase is the epoch of this activation: born entries below it are
	// stale leftovers from earlier activations of the pooled frame and read
	// as "not yet written", so reusing the frame costs O(params) instead of
	// re-initializing the whole bank. A clean return advances it past every
	// sequence number the activation handed out; aborted runs scrub born
	// wholesale instead (see scrubEpochs).
	seqBase int
	ctlBase taint.Label
	cflow   bool

	// plain is the union of the non-loop scopes' labels, all the union of
	// every scope's.
	plain, all taint.Label
	// loopMin and loopMax are the smallest and largest openSeq over the
	// loop-exit scopes, both 0 when there is none (a live openSeq is >= 2).
	loopMin, loopMax int
	// joins has bit join&63 set for every open scope: exact below 64 blocks,
	// a conservative filter above.
	joins uint64
}

// begin opens an activation on the pooled state: an empty scope stack, the
// next epoch, and the parameters born at its start.
func (cs *ctlState) begin(ctlBase taint.Label, cflow bool, numParams int32) {
	cs.reset()
	cs.ctlBase = ctlBase
	cs.cflow = cflow
	cs.writeSeq = cs.seqBase + 1
	if cflow {
		for i := range numParams {
			cs.born[i] = cs.seqBase
		}
	}
}

// reset empties the scope stack, the only way one is emptied: the summary
// goes with it, so nothing derived can go stale behind a pooled frame.
func (cs *ctlState) reset() {
	cs.ctl = cs.ctl[:0]
	cs.summarize()
}

// write is the fast engine's one register-write path: it records the
// birth of a register first written by this activation, hands out the write
// sequence number and returns wl joined with the control label of the write —
// every non-loop scope, plus the loop scopes that carry the register (it was
// born before they opened). One born before loopMin is carried by all of
// them, one born at or after loopMax (or just now) by none; only a born
// between two loop scopes' openSeq scans the stack. It fits the inliner's
// budget, so every dispatch arm takes it inline.
func (cs *ctlState) write(dst int32, wl taint.Label) taint.Label {
	b := cs.born[dst]
	if b < cs.seqBase {
		b = cs.writeSeq
		cs.born[dst] = b
	}
	cs.writeSeq++
	if b < cs.loopMin {
		return wl | cs.all
	}
	wl |= cs.plain
	if b < cs.loopMax {
		for i := range cs.ctl {
			if s := &cs.ctl[i]; s.loopExit && b < s.openSeq {
				wl |= s.label
			}
		}
	}
	return wl
}

// memCtl computes the control label applicable to a store: all scopes plus
// the control context inherited from the caller.
func (cs *ctlState) memCtl() taint.Label { return cs.ctlBase | cs.all }

// push opens a control scope, merging it with an open scope of identical
// join, label, and kind by bumping that scope's openSeq to the new write
// sequence. The reference interpreter instead accumulates one scope per
// executed tainted branch — one per iteration for a tainted loop exit —
// and rescans them all on every register write. Merging preserves every
// observable label: duplicate scopes contribute the same label to a union,
// and a loop-carried register passes the born test against some scope of
// the group iff it passes against the group's maximum openSeq, which is
// exactly what the merged scope keeps. Since labels are canonical parameter
// masks, the union order cannot even produce different representations.
func (cs *ctlState) push(join int, label taint.Label, loopExit bool) {
	seq := cs.writeSeq
	for i := range cs.ctl {
		s := &cs.ctl[i]
		if s.join == join && s.label == label && s.loopExit == loopExit {
			old := s.openSeq
			s.openSeq = seq
			if !loopExit {
				return
			}
			// No openSeq exceeds the write sequence. The minimum moves only
			// with the scope that held it: alone on the stack (the enclosing
			// loop's exit test, iteration after iteration) it is both bounds.
			cs.loopMax = seq
			if len(cs.ctl) == 1 {
				cs.loopMin = seq
			} else if old == cs.loopMin {
				cs.summarize()
			}
			return
		}
	}
	cs.ctl = append(cs.ctl, ctlScope{join: join, label: label, loopExit: loopExit, openSeq: seq})
	cs.joins |= 1 << (uint(join) & 63)
	cs.all |= label
	if !loopExit {
		cs.plain |= label
		return
	}
	if cs.loopMax == 0 {
		cs.loopMin = seq
	}
	cs.loopMax = seq
}

// closeAt drops control scopes whose join block has been reached.
func (cs *ctlState) closeAt(blk int32) {
	if cs.joins&(1<<(uint(blk)&63)) != 0 {
		cs.closeSlow(int(blk))
	}
}

//go:noinline
func (cs *ctlState) closeSlow(blk int) {
	n := 0
	for _, s := range cs.ctl {
		if s.join != blk {
			cs.ctl[n] = s
			n++
		}
	}
	if n < len(cs.ctl) {
		cs.ctl = cs.ctl[:n]
		cs.summarize()
	}
}

// summarize rebuilds the summary from the scope stack.
func (cs *ctlState) summarize() {
	cs.plain, cs.all, cs.loopMin, cs.loopMax, cs.joins = taint.None, taint.None, 0, 0, 0
	for i := range cs.ctl {
		s := &cs.ctl[i]
		cs.joins |= 1 << (uint(s.join) & 63)
		cs.all |= s.label
		if !s.loopExit {
			cs.plain |= s.label
			continue
		}
		if cs.loopMax == 0 || s.openSeq < cs.loopMin {
			cs.loopMin = s.openSeq
		}
		cs.loopMax = max(cs.loopMax, s.openSeq)
	}
}

// settledScratch is the machine's one snapshot of a summarized loop's labels
// (see settledAt): those the header test of loop li of the activation on cs
// found on the registers the loop writes, when cs's write sequence was seq.
// One per machine is enough: between two consecutive header tests of a
// summarized loop no other activation runs, and a snapshot another loop
// overwrote is only a warm-up iteration lost. A run starts without one.
type settledScratch struct {
	labels []taint.Label
	cs     *ctlState
	seq    int
	li     int32
}

// settledAt reports, at a passing header test of the summarized loop li of
// the activation on cs, whether the label state of the loop has settled: the
// registers the loop writes (regs) were all born when the previous header
// test of this loop entry ran, and carry the labels they carried then. The
// previous test is the one exactly one iteration's writes ago on this frame;
// a later entry of the loop, or a later activation on the frame, is further
// away, because re-entering takes a write to the induction register or the
// bound and a frame's write sequence only grows within a run. From a settled
// test on every iteration repeats the last one label for label: it reads the
// same labels (the invariant registers', the induction register's, and what
// it wrote itself), its exit test merges into the scope the previous test
// left (same join, same condition label), and every written register was
// born before that scope last opened, so each write is carried by the same
// scopes. One equal test is not enough — a register first written in the
// iteration between the two tests was not yet carried by the loop's own exit
// scope, and a label the step carries reaches the loop's temporaries only
// through the induction register, an iteration late — which is why the
// snapshot waits for every register to be born and the skip for a second,
// equal test.
func (m *Machine) settledAt(cs *ctlState, li int32, writes int32, labels []taint.Label, regs []int32) bool {
	sn := &m.settled
	if sn.cs == cs && sn.li == li && sn.seq+int(writes) == cs.writeSeq {
		same := true
		for i, r := range regs {
			if sn.labels[i] != labels[r] {
				same = false
				break
			}
		}
		if same {
			sn.seq = cs.writeSeq
			return true
		}
	}
	sn.cs = nil
	if cap(sn.labels) < len(regs) {
		sn.labels = make([]taint.Label, len(regs))
	}
	sn.labels = sn.labels[:len(regs)]
	for i, r := range regs {
		if cs.born[r] < cs.seqBase {
			return false
		}
		sn.labels[i] = labels[r]
	}
	sn.cs, sn.li, sn.seq = cs, li, cs.writeSeq
	return false
}

// skipLoop runs at a passing header test of a loop that carries a summary
// (see summarizeLoop), before the test's own bookkeeping. With r >= 3
// iterations left, the label state settled (or no engine attached, when no
// dispatch arm touches a label) and fuel for r-1 of them, it accounts for
// those r-1 in one step — the induction register, the write sequence, the
// loop's iteration count and the test's taken count advance by exactly what
// dispatching them would have — and returns the instructions they charge, 0
// when it skipped nothing. The caller then runs the test it was at as the
// last passing one, and the last iteration and the failing test after it go
// through the ordinary arms: final register values and labels, born stamps,
// the scope push and close and an abort past this point need no second
// implementation. Nothing else of a skipped iteration is observable: its
// writes land on registers the last iteration writes again before reading,
// with the labels they already carry; its exit test sinks the label the
// records already hold and re-opens a scope the last test re-opens anyway.
//
//go:noinline
func (m *Machine) skipLoop(prog *Program, df *dfunc, fr *fastFrame, path *pathNode, t *dterm, ls *loopSum, fuel int64, eng *taint.Engine) int64 {
	if m.everyIteration {
		return 0
	}
	cs := &fr.cs
	if eng != nil && !m.settledAt(cs, t.exit, ls.writes, fr.labels, prog.sumRegs[ls.regs:ls.regs+ls.nregs]) {
		return 0
	}
	step := fr.regs[ls.step]
	if ls.sub {
		step = -step
	}
	r, ok := scev.Trips(ls.cmp, fr.regs[ls.iv], fr.regs[ls.bound], step)
	if !ok || r < 3 || r-1 > fuel/ls.charge {
		return 0
	}
	n := r - 1
	fr.regs[ls.iv] += n * step
	if eng != nil {
		cs.writeSeq += int(n) * int(ls.writes)
		m.loopRec(df, path, t.exit, eng).Iterations += n
		m.branchRecSlow(df, t, eng).Taken += n
	}
	m.summarized += n * ls.charge
	return n * ls.charge
}

// resetFast prepares the fast-engine state of the arena for a run of entry
// function fi of prog. A recycled arena arrives sized for prog — it came from
// prog's pool — with its record and extern slots already nil (releaseFast);
// a fresh one is sized here. The interned call paths survive from run to run
// as long as the entry stays the same: a context's path string and children
// depend on nothing else, and its records were dropped on release.
func (m *Machine) resetFast(prog *Program, fi int32, entry string) {
	if len(m.globalBase) != len(prog.Mod.Globals) {
		m.globalBase = make([]Value, len(prog.Mod.Globals))
	}
	for i, g := range prog.Mod.Globals {
		m.globalBase[i] = m.globals[g.Name]
	}
	if len(m.externSlots) != len(prog.externs) {
		m.externSlots = make([]Extern, len(prog.externs))
	}
	if len(m.activeN) != len(prog.funcs) {
		m.activeN = make([]int32, len(prog.funcs))
	} else {
		clear(m.activeN)
	}
	if len(m.branchRecs) != len(prog.funcs) {
		m.branchRecs = make([][]*taint.BranchRecord, len(prog.funcs))
	}
	if len(m.siteCache) != int(prog.numSites) {
		m.siteCache = make([]int64, prog.numSites)
	}
	if len(m.paths) == 0 || m.paths[0].fnIdx != fi {
		clear(m.paths)
		clear(m.siteCache)
		m.paths = append(m.paths[:0], newPathNode(prog, entry, fi))
	}
}

// newPathNode returns the interned context str, an activation of function fn
// of prog (negative: an extern call tail, which has no loops).
func newPathNode(prog *Program, str string, fn int32) *pathNode {
	pn := &pathNode{str: str, fnIdx: fn}
	if fn >= 0 {
		if n := len(prog.funcs[fn].loops); n > 0 {
			pn.loopRecs = make([]*taint.LoopRecord, n)
		}
	}
	return pn
}

// releaseFast drops what the finished run left in the fast engine's scratch:
// the taint records cached on call paths and branch tables, the extern
// closures, and the machine pointers in the pooled frames' extern headers.
// An aborted run also leaves its frames' epochs behind (scrubEpochs).
func (m *Machine) releaseFast(aborted bool) {
	clear(m.externSlots)
	for _, brs := range m.branchRecs {
		clear(brs)
	}
	if len(m.paths) > maxPooledPaths {
		m.paths, m.siteCache = nil, nil
	}
	for _, pn := range m.paths {
		clear(pn.loopRecs)
		pn.libRec = nil
	}
	if aborted {
		m.scrubEpochs()
	}
	for _, f := range m.frames {
		f.ext = ExternCall{}
	}
	m.settled.cs = nil
}

// frame returns the pooled activation record for the given call depth,
// sized for df's registers. Recycled frames are not wiped wholesale: the
// IR contract makes unwritten registers read as zero, and predecode knows
// exactly which registers can be read before written (df.zeroRegs), so
// only those slots — and their labels, when labels flow — are scrubbed.
func (m *Machine) frame(depth int, df *dfunc) *fastFrame {
	for len(m.frames) <= depth {
		m.frames = append(m.frames, &fastFrame{})
	}
	fr := m.frames[depth]
	n := int(df.numRegs)
	if cap(fr.regs) < n {
		fr.regs = make([]Value, n)
		fr.labels = make([]taint.Label, n)
		fr.cs.born = make([]int, n)
		// A fresh born array is all zeros; epoch 1 makes them read stale.
		fr.cs.seqBase = 1
		return fr
	}
	fr.regs = fr.regs[:n]
	fr.labels = fr.labels[:n]
	fr.cs.born = fr.cs.born[:n]
	switch {
	case m.labeling && m.Taint != nil:
		// Tainted run: every register write also writes its label, so the
		// definite-assignment set covers the label bank too.
		for _, r := range df.zeroRegs {
			fr.regs[r] = 0
			fr.labels[r] = taint.None
		}
	case m.labeling:
		// Argument labels without an engine: no dispatch arm writes the
		// label bank, so recycled frames must be scrubbed wholesale for
		// labels to read deterministically (only call-arg copies move them).
		for _, r := range df.zeroRegs {
			fr.regs[r] = 0
		}
		clear(fr.labels)
	default:
		for _, r := range df.zeroRegs {
			fr.regs[r] = 0
		}
	}
	return fr
}

// childPath interns the calling context reached from parent through site,
// creating (and rendering) the node exactly once per distinct path. Repeat
// resolutions of the hottest site hit the front of the child list.
func (m *Machine) childPath(prog *Program, parent int32, site *dcall) int32 {
	pn := m.paths[parent]
	kids := pn.children
	for i := range kids {
		if kids[i].site == site.siteID {
			if i > 0 {
				kids[0], kids[i] = kids[i], kids[0]
			}
			return kids[0].id
		}
	}
	id := int32(len(m.paths))
	m.paths = append(m.paths, newPathNode(prog, pn.str+"/"+site.sym, site.callee))
	pn.children = append(pn.children, pathChild{site: site.siteID, id: id})
	return id
}

// loopRec resolves (lazily, preserving the reference engine's record
// creation order) the loop record for func-local loop li in context path.
// The dispatch loop spells the hit path out on its copy of path.loopRecs.
func (m *Machine) loopRec(df *dfunc, path *pathNode, li int32, eng *taint.Engine) *taint.LoopRecord {
	if r := path.loopRecs[li]; r != nil {
		return r
	}
	return m.loopRecSlow(df, path, li, eng)
}

//go:noinline
func (m *Machine) loopRecSlow(df *dfunc, path *pathNode, li int32, eng *taint.Engine) *taint.LoopRecord {
	lm := df.loops[li]
	r := eng.LoopRec(df.name, int(lm.id), int(lm.header), path.str)
	path.loopRecs[li] = r
	return r
}

// sinkExits hands a terminator's condition label to the record of every loop
// it exits; an empty label still resolves the records (census parity).
func (m *Machine) sinkExits(df *dfunc, path *pathNode, t *dterm, l taint.Label, eng *taint.Engine) {
	if t.exit == noExit {
		return
	}
	m.loopRec(df, path, t.exit, eng).Labels |= l
	if t.more != noExit {
		for _, li := range df.moreExits[t.more] {
			m.loopRec(df, path, li, eng).Labels |= l
		}
	}
}

// tick applies the precomputed latch/entry effect of a taken edge.
func tick(r *taint.LoopRecord, kind uint8) {
	if kind == evLatch {
		r.Iterations++
	} else {
		r.Entries++
	}
}

// branchRecSlow resolves (lazily, run-scoped) the record of branch t of df.
// Whether a branch exits a loop is static, so it is recorded here, once.
//
//go:noinline
func (m *Machine) branchRecSlow(df *dfunc, t *dterm, eng *taint.Engine) *taint.BranchRecord {
	brs := m.branchRecs[df.idx]
	if brs == nil {
		brs = make([]*taint.BranchRecord, df.numBlocks)
		m.branchRecs[df.idx] = brs
	}
	r := brs[t.block]
	if r == nil {
		r = eng.BranchRec(df.name, int(t.block))
		r.IsLoopExit = r.IsLoopExit || t.exit != noExit
		brs[t.block] = r
	}
	return r
}

// runFast executes entry on the predecoded program.
func (m *Machine) runFast(entry string, args []Value, argLabels []taint.Label) (*Result, error) {
	prog := m.Prog
	if prog == nil {
		if m.progOwned == nil {
			m.progOwned = Predecode(m.Mod)
		}
		prog = m.progOwned
	}
	fi := prog.Func(entry)
	if fi < 0 {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	df := prog.funcs[fi]
	if len(args) != int(df.numParams) {
		return nil, fmt.Errorf("interp: %q wants %d args, got %d", entry, df.numParams, len(args))
	}
	if err := m.reset(prog); err != nil {
		return nil, err
	}
	// Label banks are maintained only when labels can flow at all; a plain
	// run skips their zeroing and per-call copies entirely, and its result
	// label is forced to None below (pooled frames may hold stale labels).
	m.labeling = m.Taint != nil || argLabels != nil
	m.resetFast(prog, fi, entry)

	fr := m.frame(0, df)
	copy(fr.regs, args)
	if m.labeling {
		// Parameters are never in zeroRegs (they are assigned at entry),
		// so the recycled root frame's param slots must be cleared before
		// the (possibly partial) argument labels are copied in — the
		// reference engine zero-fills its fresh label bank the same way.
		clear(fr.labels[:df.numParams])
	}
	if argLabels != nil {
		copy(fr.labels, argLabels)
	}

	startFuel := m.fuel
	v, l, err := m.execFast(prog, df, fr, 0, taint.None, 0)
	m.release(prog, err != nil)
	if err != nil {
		return &Result{Instructions: startFuel - m.fuel, Summarized: m.summarized}, err
	}
	if !m.labeling {
		l = taint.None
	}
	return &Result{Value: v, Label: l, Instructions: startFuel - m.fuel, Summarized: m.summarized}, nil
}

// scrubEpochs ends an aborted run: its activations did not advance their
// frames' epochs past the sequence numbers they handed out, so born is
// scrubbed wholesale, to the full capacity (a later activation may reslice
// the bank wider), and the next run on these frames cannot take stale entries
// for live.
func (m *Machine) scrubEpochs() {
	for _, f := range m.frames {
		clear(f.cs.born[:cap(f.cs.born)])
		f.cs.seqBase = 1
	}
}

// execFast is one activation of the fast engine: the reference interpreter's
// recursion accounting, a fresh control-taint state, and the dispatch loop.
func (m *Machine) execFast(prog *Program, df *dfunc, fr *fastFrame, pathIdx int32, ctlBase taint.Label, depth int) (Value, taint.Label, error) {
	eng := m.Taint
	if m.activeN[df.idx] > 0 && eng != nil {
		eng.WarnRecursion(df.name)
	}
	m.activeN[df.idx]++
	fr.cs.begin(ctlBase, eng != nil && eng.ControlFlow, df.numParams)
	v, l, err := m.execLoop(prog, df, fr, pathIdx, depth, eng)
	m.activeN[df.idx]--
	return v, l, err
}

// execLoop is the fast engine's dispatch loop: a single dense instruction
// array, pc-threaded control flow, precomputed loop effects per edge, and
// label bookkeeping inlined from the reference semantics. Every observable
// action (taint unions, record updates, instruction fuel) happens in exactly
// the order the reference interpreter produces, which the differential
// harness asserts.
func (m *Machine) execLoop(prog *Program, df *dfunc, fr *fastFrame, pathIdx int32, depth int, eng *taint.Engine) (Value, taint.Label, error) {
	regs := fr.regs
	labels := fr.labels
	code := df.code
	path := m.paths[pathIdx]
	tainting := eng != nil
	cs := &fr.cs
	// Records resolve per activation, not per event: recs is nil without an
	// engine, brs until the run's first branch record of df exists.
	recs := path.loopRecs
	brs := m.branchRecs[df.idx]

	fuel := m.fuel
	pc := int32(0)
	for {
		in := &code[pc]
		fuel--
		if fuel < 0 {
			m.fuel = fuel
			return 0, taint.None, ErrFuel
		}
		switch in.op {
		case ir.OpConst:
			regs[in.dst] = in.imm
			if tainting {
				labels[in.dst] = cs.write(in.dst, taint.None)
			}
			pc++
		case ir.OpMov:
			regs[in.dst] = regs[in.a]
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a])
			}
			pc++
		case ir.OpAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpLT:
			regs[in.dst] = boolVal(regs[in.a] < regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpLE:
			regs[in.dst] = boolVal(regs[in.a] <= regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpGT:
			regs[in.dst] = boolVal(regs[in.a] > regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpGE:
			regs[in.dst] = boolVal(regs[in.a] >= regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpEQ:
			regs[in.dst] = boolVal(regs[in.a] == regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpCmpNE:
			regs[in.dst] = boolVal(regs[in.a] != regs[in.b])
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a]|labels[in.b])
			}
			pc++
		case ir.OpNeg:
			regs[in.dst] = -regs[in.a]
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a])
			}
			pc++
		case ir.OpNot:
			if regs[in.a] == 0 {
				regs[in.dst] = 1
			} else {
				regs[in.dst] = 0
			}
			if tainting {
				labels[in.dst] = cs.write(in.dst, labels[in.a])
			}
			pc++
		case ir.OpLoad:
			addr := regs[in.a] + in.imm
			if uint64(addr) >= uint64(len(m.heap)) {
				m.fuel = fuel
				return 0, taint.None, fmt.Errorf("%s: interp: load out of bounds at %d (heap %d)", df.name, addr, len(m.heap))
			}
			regs[in.dst] = m.heap[addr]
			if tainting {
				sl := taint.None
				if addr < Value(len(m.shadow)) {
					sl = m.shadow[addr]
				}
				labels[in.dst] = cs.write(in.dst, sl|labels[in.a])
			}
			pc++
		case ir.OpStore:
			addr := regs[in.a] + in.imm
			if uint64(addr) >= uint64(len(m.heap)) {
				m.fuel = fuel
				return 0, taint.None, fmt.Errorf("%s: interp: store out of bounds at %d (heap %d)", df.name, addr, len(m.heap))
			}
			m.heap[addr] = regs[in.b]
			if tainting {
				l := labels[in.b] | labels[in.a] | cs.memCtl()
				if addr < Value(len(m.shadow)) {
					m.shadow[addr] = l
				} else if l != taint.None {
					m.growShadow(addr, l)
				}
			}
			pc++
		case ir.OpAlloc:
			base, err := m.alloc(regs[in.a])
			if err != nil {
				m.fuel = fuel
				return 0, taint.None, fmt.Errorf("%s: %w", df.name, err)
			}
			regs[in.dst] = base
			if tainting {
				labels[in.dst] = cs.write(in.dst, taint.None)
			}
			pc++
		case ir.OpGlobal:
			if in.aux < 0 {
				m.fuel = fuel
				return 0, taint.None, fmt.Errorf("%s: interp: unknown global %q", df.name, df.unknownGlob[pc])
			}
			regs[in.dst] = m.globalBase[in.aux]
			if tainting {
				labels[in.dst] = cs.write(in.dst, taint.None)
			}
			pc++
		case ir.OpCall:
			site := &df.calls[in.aux]
			if site.sumN > 0 && fuel >= site.sumN {
				// Summarized callee (see summarizeFunc): charge what the
				// activation would and write its constant, unlabelled
				// return the way a returning call does. With less fuel than
				// that the activation runs below, so the abort lands on the
				// oracle's instruction.
				fuel -= site.sumN
				m.summarized += site.sumN
				regs[in.dst] = site.sumVal
				if tainting {
					labels[in.dst] = cs.write(in.dst, taint.None)
				}
				pc++
				break
			}
			childCtl := cs.memCtl()
			var childIdx int32
			if sc := m.siteCache[site.siteID]; sc != 0 && int32(sc>>32) == pathIdx {
				childIdx = int32(sc)
			} else {
				childIdx = m.childPath(prog, pathIdx, site)
				m.siteCache[site.siteID] = int64(pathIdx)<<32 | int64(childIdx)
			}
			if site.callee >= 0 {
				if int32(len(site.args)) != site.numParams {
					m.fuel = fuel
					return 0, taint.None, fmt.Errorf("interp: call %s with %d args, wants %d", site.sym, len(site.args), site.numParams)
				}
				cdf := prog.funcs[site.callee]
				cf := m.frame(depth+1, cdf)
				if m.labeling {
					for i, r := range site.args {
						cf.regs[i] = regs[r]
						cf.labels[i] = labels[r]
					}
				} else {
					for i, r := range site.args {
						cf.regs[i] = regs[r]
					}
				}
				m.fuel = fuel
				v, l, err := m.execFast(prog, cdf, cf, childIdx, childCtl, depth+1)
				if err != nil {
					return 0, taint.None, err
				}
				fuel = m.fuel
				regs[in.dst] = v
				if tainting {
					labels[in.dst] = cs.write(in.dst, l)
				}
			} else {
				ext := m.externSlots[site.externOrd]
				if ext == nil {
					ext = m.Externs[site.sym]
					if ext == nil {
						m.fuel = fuel
						return 0, taint.None, fmt.Errorf("interp: unresolved call target %q", site.sym)
					}
					m.externSlots[site.externOrd] = ext
				}
				n := len(site.args)
				if cap(fr.args) < n {
					fr.args = make([]Value, n)
					fr.argLabels = make([]taint.Label, n)
				}
				eargs := fr.args[:n]
				elabels := fr.argLabels[:n]
				if m.labeling {
					for i, r := range site.args {
						eargs[i] = regs[r]
						elabels[i] = labels[r]
					}
				} else {
					for i, r := range site.args {
						eargs[i] = regs[r]
					}
				}
				child := m.paths[childIdx]
				c := &fr.ext
				c.M = m
				c.Name = site.sym
				c.Args = eargs
				c.ArgLabels = elabels
				c.CallPath = child.str
				c.RetLabel = taint.None
				c.recCache = &child.libRec
				v, err := ext(c)
				if err != nil {
					m.fuel = fuel
					return 0, taint.None, fmt.Errorf("extern %s: %w", site.sym, err)
				}
				regs[in.dst] = v
				if tainting {
					labels[in.dst] = cs.write(in.dst, c.RetLabel)
				}
			}
			pc++
		case ir.OpWork:
			pc++
		case ir.OpRet:
			m.fuel = fuel
			cs.seqBase = cs.writeSeq
			if in.a < 0 {
				return 0, taint.None, nil
			}
			return regs[in.a], labels[in.a], nil
		case ir.OpJmp:
			cs.closeAt(in.blk0)
			if tainting && in.evk0 != evNone {
				r := recs[in.evl0]
				if r == nil {
					r = m.loopRecSlow(df, path, in.evl0, eng)
				}
				tick(r, in.evk0)
			}
			pc = in.tgt0
		case ir.OpBr:
			cond := regs[in.a] != 0
			bm := &df.branches[in.aux]
			if cond && bm.exit != noExit {
				if ls := &df.loopSums[bm.exit]; ls.charge > 0 {
					fuel -= m.skipLoop(prog, df, fr, path, bm, ls, fuel, eng)
				}
			}
			if tainting {
				condLabel := labels[in.a]
				if bm.more != noExit {
					m.sinkExits(df, path, bm, condLabel, eng)
				} else if li := bm.exit; li != noExit {
					r := recs[li]
					if r == nil {
						r = m.loopRecSlow(df, path, li, eng)
					}
					r.Labels |= condLabel
				}
				var br *taint.BranchRecord
				if brs != nil {
					br = brs[bm.block]
				}
				if br == nil {
					// A recursive activation may have filled the table since
					// this one read it.
					br = m.branchRecSlow(df, bm, eng)
					brs = m.branchRecs[df.idx]
				}
				br.Labels |= condLabel
				if cond {
					br.Taken++
				} else {
					br.NotTaken++
				}
				if cs.cflow && condLabel != taint.None {
					cs.push(int(bm.joinBlk), condLabel, bm.exit != noExit)
				}
			}
			blk, tgt, evk, evl := in.blk1, in.tgt1, in.evk1, in.evl1
			if cond {
				blk, tgt, evk, evl = in.blk0, in.tgt0, in.evk0, in.evl0
			}
			cs.closeAt(blk)
			if tainting && evk != evNone {
				r := recs[evl]
				if r == nil {
					r = m.loopRecSlow(df, path, evl, eng)
				}
				tick(r, evk)
			}
			pc = tgt
		case ir.OpSwitch:
			sw := &df.switches[in.aux]
			v := regs[in.a]
			tgt := &sw.def
			for i := range sw.cases {
				if sw.cases[i].val == v {
					tgt = &sw.cases[i]
					break
				}
			}
			if tainting {
				condLabel := labels[in.a]
				m.sinkExits(df, path, &sw.dterm, condLabel, eng)
				if cs.cflow && condLabel != taint.None {
					cs.push(int(sw.joinBlk), condLabel, sw.exit != noExit)
				}
			}
			cs.closeAt(tgt.blk)
			if tainting && tgt.evk != evNone {
				tick(m.loopRec(df, path, tgt.evl, eng), tgt.evk)
			}
			pc = tgt.pc
		default:
			a, b := regs[in.a], Value(0)
			var la, lb taint.Label
			la = labels[in.a]
			if in.b >= 0 {
				b = regs[in.b]
				lb = labels[in.b]
			}
			regs[in.dst] = binop(in.op, a, b)
			if tainting {
				labels[in.dst] = cs.write(in.dst, la|lb)
			}
			pc++
		}
	}
}
