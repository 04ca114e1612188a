// Package noise provides the deterministic stochastic machinery of the
// measurement substrate: seeded Gaussian multiplicative noise plus an
// absolute jitter floor. The floor matters: the paper's Section 4.5 point
// is that short-running functions drown in noise, which only reproduces if
// small measurements carry proportionally more variance.
package noise

import "math/rand"

// Source generates measurement noise deterministically from a seed.
type Source struct {
	rng *rand.Rand
	// Relative is the multiplicative Gaussian sigma (e.g. 0.02 = 2%).
	Relative float64
	// FloorSeconds is the absolute jitter added to every measurement
	// (scheduler/timer granularity effects).
	FloorSeconds float64
}

// New returns a source with the given seed and noise levels.
func New(seed int64, relative, floorSeconds float64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed)), Relative: relative, FloorSeconds: floorSeconds}
}

// Quiet returns a zero-noise source (ground-truth runs).
func Quiet() *Source { return New(1, 0, 0) }

// Perturb returns one noisy observation of the true value (never negative).
func (s *Source) Perturb(trueValue float64) float64 {
	v := trueValue
	if s.Relative > 0 {
		v *= 1 + s.Relative*s.rng.NormFloat64()
	}
	if s.FloorSeconds > 0 {
		v += s.FloorSeconds * s.rng.NormFloat64()
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Repeat returns n observations of the true value.
func (s *Source) Repeat(trueValue float64, n int) []float64 {
	out := make([]float64, n)
	s.Fill(out, trueValue)
	return out
}

// Fill overwrites out with observations of the true value, in order.
func (s *Source) Fill(out []float64, trueValue float64) {
	for i := range out {
		out[i] = s.Perturb(trueValue)
	}
}
