package extrap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// luleshShapedBatch is one extraction's final fit, shaped like the
// lulesh-large workload: 86 datasets on the p{2..16} x size{11..17}
// design with 3 repeats, and a hybrid and a black-box request for each.
func luleshShapedBatch() []Request {
	two := []string{"p", "size"}
	design := crossProduct(two, []float64{2, 4, 8, 16}, []float64{11, 13, 15, 17})
	kernels := []struct {
		f     func(p, s float64) float64
		prior *Prior
	}{
		{func(p, s float64) float64 { return 1e-3 * s * s * s }, &Prior{Allowed: map[string]bool{"size": true}}},
		{func(p, s float64) float64 { return 2 + 0.4*s*s + 3*math.Log2(p) }, &Prior{Allowed: map[string]bool{"p": true, "size": true}}},
		{func(p, s float64) float64 { return 2e-3 * math.Sqrt(math.Sqrt(p)) * s * s * s }, &Prior{Allowed: map[string]bool{"p": true, "size": true}}},
		{func(p, s float64) float64 { return 7 * math.Log2(p) }, &Prior{Allowed: map[string]bool{"p": true}}},
		{func(p, s float64) float64 { return 11 }, &Prior{ForceConstant: true}},
	}
	var reqs []Request
	for i := 0; i < 86; i++ {
		k := kernels[i%len(kernels)]
		rng := rand.New(rand.NewSource(int64(i)))
		scale := 1 + float64(i)
		d := measured(two, design, 3, 0.02, rng, func(c map[string]float64) float64 { return scale * k.f(c["p"], c["size"]) })
		name := fmt.Sprintf("f%02d", i)
		reqs = append(reqs, Request{Name: name, Dataset: d, Prior: k.prior}, Request{Name: name, Dataset: d})
	}
	return reqs
}

// TestFitAllAllocationCeiling bounds the allocations of one
// lulesh-large-shaped final fit at the measured count plus 10 %: the
// per-design tables must stay a per-design cost, not creep into every
// request.
func TestFitAllAllocationCeiling(t *testing.T) {
	const measured, ceiling = 4_629, 4_629 * 11 / 10
	reqs := luleshShapedBatch()
	allocs := testing.AllocsPerRun(5, func() { fitSink = FitAll(reqs, DefaultOptions(), 1) })
	t.Logf("FitAll: %.0f allocations per batch (measured %d, ceiling %d)", allocs, measured, ceiling)
	if allocs > ceiling {
		t.Fatalf("FitAll allocates %.0f times per batch, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkFitAllLuleshShaped times the batch TestFitAllAllocationCeiling
// bounds.
func BenchmarkFitAllLuleshShaped(b *testing.B) {
	reqs := luleshShapedBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSink = FitAll(reqs, DefaultOptions(), 1)
	}
}
