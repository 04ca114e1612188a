package core

import "repro/internal/taint"

// Aggregate runs Analyze's stages 3-5 on a caller-built engine, so the
// oracle test can feed the production aggregation arbitrary label
// assignments.
func (p *Prepared) Aggregate(e *taint.Engine) *Report { return p.aggregate(e, 0) }
