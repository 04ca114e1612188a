package interp

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
