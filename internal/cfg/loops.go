package cfg

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Loop is a natural loop: the set of blocks dominated by the header that can
// reach a back edge into the header.
type Loop struct {
	ID     int
	Header int
	Blocks map[int]bool
	// Latches are blocks with a back edge to Header.
	Latches []int
	// ExitBranches lists the (block, successor-out-of-loop) conditional
	// terminators controlling loop exit: the taint sinks of Section 4.1.
	ExitBranches []ExitBranch
	Parent       *Loop
	Children     []*Loop
	Depth        int
}

// ExitBranch identifies a conditional branch that can leave the loop.
type ExitBranch struct {
	Block int // block whose terminator is the branch
	// CondReg is the branch condition register (the sink operand).
	CondReg ir.Reg
}

// Contains reports whether block b belongs to the loop body.
func (l *Loop) Contains(b int) bool { return l.Blocks[b] }

// Forest is the loop nesting forest of a function.
type Forest struct {
	Fn *ir.Function
	// Graph is the CFG the forest was derived from.
	Graph *Graph
	Loops []*Loop // all loops, outermost-first order within each nest
	Roots []*Loop
	// ByHeader maps header block index to its innermost loop.
	ByHeader map[int]*Loop
	// InnermostAt[b] is the innermost loop containing block b (nil if none).
	InnermostAt []*Loop
	// Irreducible is true when a retreating edge targets a non-dominating
	// block: control enters a cycle through multiple paths (footnote 2).
	Irreducible bool
}

// FindLoops detects all natural loops of g via back edges (Aho-Sethi-Ullman)
// and assembles the nesting forest.
func FindLoops(g *Graph) *Forest {
	idom := Dominators(g)
	n := len(g.Fn.Blocks)
	f := &Forest{
		Fn:          g.Fn,
		Graph:       g,
		ByHeader:    make(map[int]*Loop),
		InnermostAt: make([]*Loop, n),
	}

	// Collect back edges: edge u->h where h dominates u. Retreating edges
	// (present in a DFS but without domination) mark irreducibility.
	type backEdge struct{ from, to int }
	var backs []backEdge
	for u := 0; u < n; u++ {
		if !g.Reachable(u) {
			continue
		}
		for _, s := range g.Succ[u] {
			if !g.Reachable(s) {
				continue
			}
			// Retreating in RPO: target earlier than source.
			if g.PostNum[s] >= g.PostNum[u] {
				if Dominates(idom, s, u) {
					backs = append(backs, backEdge{u, s})
				} else {
					f.Irreducible = true
				}
			}
		}
	}
	sort.Slice(backs, func(i, j int) bool {
		if backs[i].to != backs[j].to {
			return backs[i].to < backs[j].to
		}
		return backs[i].from < backs[j].from
	})

	// Merge back edges sharing a header into one loop; compute the body by
	// reverse reachability from latches, bounded by the header.
	byHeader := make(map[int]*Loop)
	for _, be := range backs {
		l, ok := byHeader[be.to]
		if !ok {
			l = &Loop{Header: be.to, Blocks: map[int]bool{be.to: true}}
			byHeader[be.to] = l
		}
		l.Latches = append(l.Latches, be.from)
		// Walk predecessors from the latch until the header.
		stack := []int{be.from}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Blocks[b] {
				continue
			}
			l.Blocks[b] = true
			for _, p := range g.Pred[b] {
				if g.Reachable(p) && !l.Blocks[p] {
					stack = append(stack, p)
				}
			}
		}
	}

	for h, l := range byHeader {
		f.ByHeader[h] = l
		f.Loops = append(f.Loops, l)
	}
	sort.Slice(f.Loops, func(i, j int) bool { return f.Loops[i].Header < f.Loops[j].Header })
	for i, l := range f.Loops {
		l.ID = i
	}

	// Nesting: loop A is parent of B if A contains B's header and A != B.
	// Choose the smallest containing loop as the parent.
	for _, inner := range f.Loops {
		var best *Loop
		for _, outer := range f.Loops {
			if outer == inner || !outer.Contains(inner.Header) {
				continue
			}
			// Skip same-header (impossible: merged) and pick tightest.
			if best == nil || len(outer.Blocks) < len(best.Blocks) {
				best = outer
			}
		}
		inner.Parent = best
		if best != nil {
			best.Children = append(best.Children, inner)
		} else {
			f.Roots = append(f.Roots, inner)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, r := range f.Roots {
		setDepth(r, 1)
	}

	// Innermost loop per block.
	for _, l := range f.Loops {
		for b := range l.Blocks {
			cur := f.InnermostAt[b]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				f.InnermostAt[b] = l
			}
		}
	}

	// Exit branches: conditional terminators inside the loop with at least
	// one successor outside it.
	for _, l := range f.Loops {
		for b := range l.Blocks {
			t := g.Fn.Blocks[b].Term()
			if t.Op != ir.OpBr && t.Op != ir.OpSwitch {
				continue
			}
			outside := false
			for _, s := range g.Fn.Blocks[b].Succs(nil) {
				if !l.Contains(s) {
					outside = true
					break
				}
			}
			if outside {
				l.ExitBranches = append(l.ExitBranches, ExitBranch{Block: b, CondReg: t.A})
			}
		}
		sort.Slice(l.ExitBranches, func(i, j int) bool {
			return l.ExitBranches[i].Block < l.ExitBranches[j].Block
		})
	}
	return f
}

// EdgeKind classifies a CFG edge with respect to the loop forest.
type EdgeKind uint8

// Edge kinds, in the order the dynamic taint pass checks them: a latch edge
// (back edge into a loop header) counts one iteration; an entry edge (into a
// header from outside the loop) counts one trip start; every other edge is
// plain control transfer.
const (
	EdgeNone EdgeKind = iota
	EdgeLatch
	EdgeEntry
)

// ClassifyEdge categorizes the CFG edge from->to for loop accounting,
// returning the loop the event belongs to (nil for EdgeNone). The
// classification mirrors the dynamic check order of the interpreter: a back
// edge into the header of loop L is a latch of L; otherwise an edge into a
// header from a block outside the header's innermost loop is an entry.
func (f *Forest) ClassifyEdge(from, to int) (EdgeKind, *Loop) {
	if l := f.ByHeader[to]; l != nil {
		for _, latch := range l.Latches {
			if latch == from {
				return EdgeLatch, l
			}
		}
		if !l.Contains(from) {
			return EdgeEntry, l
		}
	}
	return EdgeNone, nil
}

// ExitLoops returns the loops for which the terminator of block b is an exit
// branch, in Loops order (sorted by header) — the order in which the dynamic
// pass fires the corresponding taint sinks.
func (f *Forest) ExitLoops(b int) []*Loop {
	var out []*Loop
	for _, l := range f.Loops {
		for _, e := range l.ExitBranches {
			if e.Block == b {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// LoopOfBranch returns the innermost loop for which the terminator of block
// b is an exit branch, or nil.
func (f *Forest) LoopOfBranch(b int) *Loop {
	l := f.InnermostAt[b]
	for l != nil {
		for _, e := range l.ExitBranches {
			if e.Block == b {
				return l
			}
		}
		l = l.Parent
	}
	return nil
}

// String names a loop by function-local header for diagnostics.
func (l *Loop) String() string {
	return fmt.Sprintf("loop@b%d(depth %d, %d blocks)", l.Header, l.Depth, len(l.Blocks))
}

// ModuleForests builds the CFG and loop forest of every function of m, in
// FuncList order. The static pass, the analysis plan and the predecoder
// all read this structure and none of them writes it, so core.Prepare
// builds it once and hands the same forests to all three.
func ModuleForests(m *ir.Module) []*Forest {
	out := make([]*Forest, len(m.FuncList))
	for i, fn := range m.FuncList {
		out[i] = FindLoops(Build(fn))
	}
	return out
}
