package core

import "repro/internal/taint"

// Aggregate runs Analyze's stages 3-5 on a caller-built engine, so the
// oracle test can feed the production aggregation arbitrary label
// assignments.
func (p *Prepared) Aggregate(e *taint.Engine) *Report { return p.aggregate(e, 0) }

// ReportView renders everything a report says, for the external tests that
// compare reports: the taint engine's records by value with the instruction
// count (engineDump), then the aggregated maps, volumes and census
// (sharedView).
func ReportView(r *Report) string { return engineDump(r) + sharedView(r) }
