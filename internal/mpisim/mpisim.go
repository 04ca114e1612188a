// Package mpisim holds the analytical communication cost models
// (alpha-beta point-to-point, Thakur-style collectives) the ground-truth
// evaluator uses to synthesize the time of the MPI routines the library
// database describes.
//
// The taint analysis itself runs single-process (labels are not exchanged
// across ranks; see Section 5.3), so no message is ever passed: a routine
// contributes its modeled cost, as a function of communicator size and
// message size, and nothing else.
package mpisim

import "math"

// CostModel is the analytical communication cost model: alpha latency
// (seconds), beta inverse bandwidth (seconds per element).
type CostModel struct {
	Alpha float64
	Beta  float64
}

// DefaultCost uses values representative of a commodity cluster
// interconnect: 1.5us latency, 8 bytes per element at 10 GB/s.
func DefaultCost() CostModel {
	return CostModel{Alpha: 1.5e-6, Beta: 8.0 / 10e9}
}

// P2P returns alpha + beta*m for an m-element point-to-point message.
func (c CostModel) P2P(m float64) float64 { return c.Alpha + c.Beta*m }

// Barrier returns alpha*ceil(log2 p) for a dissemination barrier.
func (c CostModel) Barrier(p float64) float64 {
	if p <= 1 {
		return 0
	}
	return c.Alpha * math.Ceil(math.Log2(p))
}

// Bcast returns (alpha + beta*m)*ceil(log2 p) for a binomial-tree
// broadcast (Thakur et al.).
func (c CostModel) Bcast(p, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return (c.Alpha + c.Beta*m) * math.Ceil(math.Log2(p))
}

// Allreduce returns 2*(alpha + beta*m)*ceil(log2 p), the
// reduce-then-broadcast tree bound.
func (c CostModel) Allreduce(p, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return 2 * (c.Alpha + c.Beta*m) * math.Ceil(math.Log2(p))
}

// Gather returns alpha*log2(p) + beta*m*(p-1), linear in p for the data
// term (the root receives p-1 messages).
func (c CostModel) Gather(p, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return c.Alpha*math.Ceil(math.Log2(p)) + c.Beta*m*(p-1)
}

// Scatter returns alpha*log2(p) + beta*m*(p-1): the root pushes p-1
// chunks, with a binomial-tree latency term — the mirror image of Gather.
func (c CostModel) Scatter(p, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return c.Alpha*math.Ceil(math.Log2(p)) + c.Beta*m*(p-1)
}

// Alltoall returns (p-1)*(alpha + beta*m) for the pairwise complete
// exchange: every rank trades an m-element chunk with each peer.
func (c CostModel) Alltoall(p, m float64) float64 {
	if p <= 1 {
		return 0
	}
	return (p - 1) * (c.Alpha + c.Beta*m)
}
