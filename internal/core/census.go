package core

import (
	"repro/internal/apps"
	"repro/internal/taint"
)

// Census is the two-phase identification summary of Table 2.
type Census struct {
	// FunctionsTotal counts spec functions plus used MPI routines, matching
	// the paper's accounting.
	FunctionsTotal    int
	PrunedStatically  int
	PrunedDynamically int
	Kernels           int
	CommRoutines      int
	MPIFunctions      int

	LoopsTotal          int
	LoopsPrunedStatic   int
	LoopsRelevant       int
	LoopsUntaintedOther int

	// PercentConstant is the share of functions classified constant
	// (statically or dynamically pruned): 86.2% for LULESH, 87.7% for MILC.
	PercentConstant float64
}

// Census derives the Table 2 numbers from the report. modelParams selects
// the loop-relevance column ({p, size} in the paper).
func (r *Report) Census(modelParams []string) Census {
	var c Census
	c.MPIFunctions = len(r.Spec.MPIUsed)
	c.FunctionsTotal = len(r.Spec.Funcs) + c.MPIFunctions

	for _, f := range r.Spec.Funcs {
		fc := r.Static[f.Name]
		switch {
		case fc != nil && fc.Pruned && !r.Relevant[f.Name]:
			c.PrunedStatically++
		case !r.Relevant[f.Name]:
			c.PrunedDynamically++
		case f.Kind == apps.KindComm:
			c.CommRoutines++
		default:
			c.Kernels++
		}
	}
	c.PercentConstant = 100 * float64(c.PrunedStatically+c.PrunedDynamically) /
		float64(len(r.Spec.Funcs))

	// Loop census over the whole module, from the plan's loop lists and
	// the run's per-loop labels.
	modelLabel := taint.None
	for _, p := range modelParams {
		modelLabel |= r.Engine.Table.LabelOf(p)
	}
	pl := r.plan
	for fn := 0; fn < pl.NumFuncs(); fn++ {
		c.LoopsTotal += pl.NumLoops(fn)
		for loop, l := range r.loopLabels[pl.loopBase[fn]:pl.loopBase[fn+1]] {
			switch {
			case pl.StaticLoop(fn, loop):
				c.LoopsPrunedStatic++
			case l&modelLabel != taint.None:
				c.LoopsRelevant++
			default:
				c.LoopsUntaintedOther++
			}
		}
	}
	return c
}
