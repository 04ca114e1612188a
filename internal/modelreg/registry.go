package modelreg

import "repro/internal/diskcache"

// Registry is the content-addressed model store: finished ModelSets
// keyed by Key (spec digest + design digest) in the daemon's one cache
// implementation. Each distinct key is built at most once — concurrent
// requests for the same key join the in-flight build — and completed
// sets are immutable and shared read-only, so a hit answers POST
// /v1/models without touching the interpreter or the fitter at all. With
// a disk tier attached (SetDisk), finished sets are written through on
// build and a restarted process serves them with zero rebuilds.
type Registry = diskcache.Cache[*ModelSet]

// NewRegistry returns a registry bounded to capacity completed model
// sets (<= 0 means unbounded).
func NewRegistry(capacity int) *Registry {
	return diskcache.NewCache[*ModelSet](capacity)
}
