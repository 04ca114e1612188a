package mpisim

import (
	"math"
	"testing"
)

func TestCostModelShapes(t *testing.T) {
	c := DefaultCost()
	// Monotone in p for collectives.
	if !(c.Allreduce(64, 100) > c.Allreduce(8, 100)) {
		t.Fatal("allreduce cost must grow with p")
	}
	if !(c.Bcast(64, 100) > c.Bcast(8, 100)) {
		t.Fatal("bcast cost must grow with p")
	}
	// Logarithmic shape: doubling p adds a constant for barrier.
	d1 := c.Barrier(16) - c.Barrier(8)
	d2 := c.Barrier(32) - c.Barrier(16)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("barrier not logarithmic: deltas %g %g", d1, d2)
	}
	// Gather is linear in p for the bandwidth term.
	g1 := c.Gather(32, 1000) - c.Gather(16, 1000)
	g2 := c.Gather(64, 1000) - c.Gather(32, 1000)
	if g2 < 1.5*g1 {
		t.Fatalf("gather bandwidth term not linear: %g then %g", g1, g2)
	}
	// Degenerate single-rank communicators cost nothing.
	if c.Barrier(1) != 0 || c.Allreduce(1, 10) != 0 || c.Gather(1, 10) != 0 {
		t.Fatal("single-rank collectives must be free")
	}
	if c.P2P(0) != c.Alpha {
		t.Fatal("empty message must cost alpha")
	}
}

func TestScatterAlltoallCostShapes(t *testing.T) {
	c := DefaultCost()
	// Single-rank communicators communicate nothing.
	if c.Scatter(1, 64) != 0 || c.Alltoall(1, 64) != 0 {
		t.Fatal("p=1 collectives must cost 0")
	}
	// Both grow with p and with m.
	if !(c.Scatter(16, 64) > c.Scatter(4, 64)) || !(c.Scatter(8, 256) > c.Scatter(8, 64)) {
		t.Error("scatter cost must grow with p and m")
	}
	if !(c.Alltoall(16, 64) > c.Alltoall(4, 64)) || !(c.Alltoall(8, 256) > c.Alltoall(8, 64)) {
		t.Error("alltoall cost must grow with p and m")
	}
	// Alltoall is pairwise-linear: exactly (p-1)*(alpha+beta*m).
	p, m := 8.0, 32.0
	if got, want := c.Alltoall(p, m), (p-1)*(c.Alpha+c.Beta*m); math.Abs(got-want) > 1e-18 {
		t.Errorf("alltoall(%g,%g) = %g, want %g", p, m, got, want)
	}
	// Scatter mirrors Gather's shape.
	if c.Scatter(8, 32) != c.Gather(8, 32) {
		t.Error("scatter and gather are mirror images under the linear model")
	}
}
