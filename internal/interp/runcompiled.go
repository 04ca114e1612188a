package interp

import (
	"fmt"

	"repro/internal/taint"
)

// This file is the runtime half of the compiled engine: the Run entry
// point, the per-activation block-threading loop, and the exact-fuel
// de-optimization path back into the fast interpreter. Compile-time
// lowering lives in compile.go.

// runCompiled executes entry on the compiled-closure artifact.
func (m *Machine) runCompiled(entry string, args []Value, argLabels []taint.Label) (*Result, error) {
	if m.Taint == nil && argLabels != nil {
		// Labeling without an engine: only call-argument copies move labels,
		// which the fast engine already implements without dispatch overhead
		// worth compiling away. Keeping one implementation of that niche
		// avoids a fourth label discipline in the step closures.
		return m.runFast(entry, args, argLabels)
	}
	cp := m.Compiled
	if cp == nil {
		if m.compiledOwned == nil {
			prog := m.Prog
			if prog == nil {
				if m.progOwned == nil {
					m.progOwned = Predecode(m.Mod)
				}
				prog = m.progOwned
			}
			m.compiledOwned = Compile(prog)
		}
		cp = m.compiledOwned
	}
	prog := cp.prog
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
	m.labeling = m.Taint != nil
	m.resetFast(prog, fi, entry)

	fr := m.frame(0, df)
	copy(fr.regs, args)
	if m.labeling {
		clear(fr.labels[:df.numParams])
	}
	if argLabels != nil {
		copy(fr.labels, argLabels)
	}

	ccf := cp.funcs[fi]
	vk := vkPlain
	blocks := ccf.plain
	if m.Taint != nil {
		vk = vkTaint
		blocks = ccf.taint
		if ccf.clean != nil {
			am := taint.None
			for _, l := range fr.labels[:df.numParams] {
				am |= l
			}
			if am == taint.None {
				vk = vkClean
				blocks = ccf.clean
			}
		}
	}

	startFuel := m.fuel
	v, l, err := m.execCompiled(cp, ccf, blocks, fr, 0, taint.None, 0, vk)
	m.release(prog, err != nil)
	if err != nil {
		return &Result{Instructions: startFuel - m.fuel, Summarized: m.summarized}, err
	}
	if !m.labeling {
		l = taint.None
	}
	return &Result{Value: v, Label: l, Instructions: startFuel - m.fuel, Summarized: m.summarized}, nil
}

// execCompiled is one activation of the compiled engine: thread block to
// block, pre-charge each segment's fuel in one subtraction, and run its
// step closures. Any step error or fuel shortfall leaves the machine in
// exactly the state the fast engine would produce at the same instruction.
//
// The kctx is pooled inside the frame and most of its pointer fields are
// loop- or run-invariant, so they are refreshed behind identity guards
// (m for run-scoped fields, df for activation-bank fields) rather than
// stored unconditionally: each skipped pointer store is a skipped GC write
// barrier on what is the hottest call path in the engine. Recursion
// accounting is skipped for plain activations — activeN only ever feeds
// WarnRecursion, which needs a taint engine to fire.
func (m *Machine) execCompiled(cp *Compiled, ccf *cfunc, blocks []cblock, fr *fastFrame, pathIdx int32, ctlBase taint.Label, depth int, vk vkind) (v Value, l taint.Label, err error) {
	df := ccf.df
	tainting := vk != vkPlain
	if tainting {
		if m.activeN[df.idx] > 0 {
			m.Taint.WarnRecursion(df.name)
		}
		m.activeN[df.idx]++
	}

	k := &fr.k
	if k.m == nil {
		// A frame comes out of the arena pool with a zero context (see
		// releaseFast): bind it to this run.
		k.m = m
		k.cp = cp
		k.prog = cp.prog
		k.eng = m.Taint
		k.fr = fr
		k.depth = depth
		k.df = nil
		k.pathIdx = -1
	}
	if k.df != df {
		k.df = df
		k.regs = fr.regs
		k.labels = fr.labels
	}
	if k.pathIdx != pathIdx {
		k.pathIdx = pathIdx
		k.path = m.paths[pathIdx]
	}

	cs := &fr.cs
	cs.begin(ctlBase, vk == vkTaint && k.eng.ControlFlow, df.numParams)

	k.fuel = m.fuel
	bi := int32(0)
loop:
	for {
		b := &blocks[bi]
		if k.fuel < b.cost {
			v, l, err = m.compiledFallback(k, b.pc, vk)
			break loop
		}
		k.fuel -= b.cost
		for _, st := range b.steps {
			if !st(k) {
				v, l, err = m.compiledAbort(k)
				break loop
			}
		}
		if len(b.more) > 0 {
			for si := range b.more {
				sg := &b.more[si]
				if k.fuel < sg.cost {
					v, l, err = m.compiledFallback(k, sg.pc, vk)
					break loop
				}
				k.fuel -= sg.cost
				for _, st := range sg.steps {
					if !st(k) {
						v, l, err = m.compiledAbort(k)
						break loop
					}
				}
			}
		}
		bi = b.term(k)
		if bi < 0 {
			m.fuel = k.fuel
			cs.seqBase = cs.writeSeq
			v, l = k.ret, k.retl
			break loop
		}
	}

	if tainting {
		m.activeN[df.idx]--
	}
	return v, l, err
}

// compiledAbort finishes an activation whose step reported an error:
// restore the unconsumed remainder of the segment pre-charge.
func (m *Machine) compiledAbort(k *kctx) (Value, taint.Label, error) {
	m.fuel = k.fuel + k.refund
	return 0, taint.None, k.err
}

// compiledFallback de-optimizes the current activation into the fast
// interpreter loop at the first instruction of a segment whose pre-charge
// would overdraw the fuel budget. Nothing from that segment has executed
// or been charged yet, so execLoop burns down per-instruction and
// aborts (or completes) at exactly the oracle's instruction.
func (m *Machine) compiledFallback(k *kctx, pc int32, vk vkind) (Value, taint.Label, error) {
	m.fuel = k.fuel
	if vk == vkClean {
		// A clean activation proves every live label None but skips the label
		// bank entirely, so the pooled bank may hold stale values; the fast
		// loop reads labels, so reconstruct the proven state. The scope stack
		// stays empty and cs.cflow stays false: with every label None no
		// scope can open and no born bookkeeping can become observable.
		clear(k.labels)
	}
	return m.execLoop(k.prog, k.df, k.fr, k.pathIdx, k.depth, k.eng, pc)
}
