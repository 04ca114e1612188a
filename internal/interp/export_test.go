package interp

import "slices"

// LoopSummarized reports whether the loop of function fn headed by block
// header carries a loop summary, for the external tests that name their
// loops by header block.
func (p *Program) LoopSummarized(fn string, header int) bool {
	df := p.funcs[p.byName[fn]]
	for i, l := range df.loops {
		if int(l.header) == header {
			return df.loopSums[i].charge > 0
		}
	}
	return false
}

// MaxPooledCells is the heap or shadow capacity above which a run's arena is
// dropped instead of pooled.
const MaxPooledCells = maxPooledCells

// PooledArena is what the retention tests see of an arena taken out of a
// program's pool.
type PooledArena struct {
	HeapCap, ShadowCap int
	// Frames and Paths count the activation records and interned call paths
	// the arena keeps for the next run.
	Frames, Paths int
	// Kept lists what the arena still holds of the run that used it; an
	// arena that honours its invariant keeps nothing.
	Kept []string
}

// TakeArena removes one arena from p's pool; ok is false when the pool has
// none to give (nothing was pooled — or, a sync.Pool being what it is,
// something was and the pool lost it).
func (p *Program) TakeArena() (pa PooledArena, ok bool) {
	a, _ := p.arenas.Get().(*runArena)
	if a == nil {
		return pa, false
	}
	pa = PooledArena{HeapCap: cap(a.heap), ShadowCap: cap(a.shadow), Frames: len(a.frames), Paths: len(a.paths)}
	keep := func(cond bool, what string) {
		if cond && !slices.Contains(pa.Kept, what) {
			pa.Kept = append(pa.Kept, what)
		}
	}
	keep(len(a.heap) != 0 || len(a.shadow) != 0, "a heap or shadow length")
	for _, v := range a.heap[:cap(a.heap)] {
		if v != 0 {
			keep(true, "a heap cell")
			break
		}
	}
	for _, l := range a.shadow[:cap(a.shadow)] {
		if l != 0 {
			keep(true, "a shadow label")
			break
		}
	}
	keep(len(a.globals) != 0 || len(a.active) != 0, "a global or recursion table entry")
	for _, e := range a.externSlots {
		keep(e != nil, "an extern closure")
	}
	for _, brs := range a.branchRecs {
		for _, r := range brs {
			keep(r != nil, "a branch record")
		}
	}
	for _, pn := range a.paths {
		keep(pn.libRec != nil, "a library-call record")
		for _, r := range pn.loopRecs {
			keep(r != nil, "a loop record")
		}
	}
	for _, f := range a.frames {
		keep(f.ext.M != nil || f.ext.recCache != nil || f.ext.Args != nil, "an extern call header")
	}
	keep(a.settled.cs != nil, "a settled-label snapshot")
	return pa, true
}
