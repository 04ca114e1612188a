package extrap

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateFits = flag.Bool("update-fits", false, "rewrite testdata/fits_golden.json from the current implementation")

// fitCase is one row of the table that drives TestFitBitsGolden and
// BenchmarkFitAll: a dataset and the request made of it. Only the public
// API appears here, so the same table compiles against any implementation
// of the search — the golden file was generated by the implementation at
// commit ff064e7, before the columnar fitter existed.
type fitCase struct {
	name  string
	data  *Dataset
	param string // non-empty: ModelSingle over this parameter
	prior *Prior
	opt   Options // zero value: DefaultOptions
}

func (c fitCase) fit() (*Model, error) {
	if c.param != "" {
		return ModelSingle(c.data, c.param, c.opt)
	}
	return ModelMulti(c.data, c.opt, c.prior)
}

// crossProduct returns the cross product of the axes as configurations, first
// axis slowest — the order a sweep design emits them.
func crossProduct(names []string, axes ...[]float64) []map[string]float64 {
	out := []map[string]float64{{}}
	for i, axis := range axes {
		var next []map[string]float64
		for _, base := range out {
			for _, v := range axis {
				cfg := make(map[string]float64, len(names))
				for k, x := range base {
					cfg[k] = x
				}
				cfg[names[i]] = v
				next = append(next, cfg)
			}
		}
		out = next
	}
	return out
}

// measured builds a dataset over cfgs with reps noisy repeats of truth.
func measured(names []string, cfgs []map[string]float64, reps int, rel float64, rng *rand.Rand, truth func(map[string]float64) float64) *Dataset {
	d := NewDataset(names...)
	for _, cfg := range cfgs {
		vals := make([]float64, reps)
		for i := range vals {
			vals[i] = truth(cfg) * (1 + rel*rng.NormFloat64())
		}
		d.Add(cfg, vals...)
	}
	return d
}

func fitCases() []fitCase {
	var cases []fitCase
	add := func(c fitCase) { cases = append(cases, c) }
	allow := func(ps ...string) *Prior {
		m := make(map[string]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return &Prior{Allowed: m}
	}
	cv := DefaultOptions()
	cv.Selection = SelectCV
	three := DefaultOptions()
	three.Space.MaxTerms = 3

	// Single-parameter searches.
	xs := []float64{2, 4, 8, 16, 32, 64, 128}
	singles := []struct {
		name string
		f    func(x float64) float64
	}{
		{"linear", func(x float64) float64 { return 3 + 2*x }},
		{"cubic", func(x float64) float64 { return 1e-3 * x * x * x }},
		{"log", func(x float64) float64 { return 5 * math.Log2(x) }},
		{"sqrt-log", func(x float64) float64 { return 7 + math.Sqrt(x)*math.Log2(x) }},
		{"two-term", func(x float64) float64 { return 10 + 2*x + 0.5*x*x }},
		{"constant", func(float64) float64 { return 42 }},
		{"zero", func(float64) float64 { return 0 }},
	}
	for i, s := range singles {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		f := s.f
		truth := func(c map[string]float64) float64 { return f(c["x"]) }
		cfgs := crossProduct([]string{"x"}, xs)
		add(fitCase{name: "single/" + s.name + "/exact", data: measured([]string{"x"}, cfgs, 1, 0, rng, truth), param: "x"})
		add(fitCase{name: "single/" + s.name + "/noisy", data: measured([]string{"x"}, cfgs, 5, 0.03, rng, truth), param: "x"})
		add(fitCase{name: "single/" + s.name + "/noisy-cv", data: measured([]string{"x"}, cfgs, 5, 0.03, rng, truth), param: "x", opt: cv})
	}
	// Degenerate single-parameter datasets: too few points, one repeated
	// coordinate (singular for every shape), coordinates below the clamp.
	rng := rand.New(rand.NewSource(7))
	line := func(c map[string]float64) float64 { return 1 + c["x"] }
	add(fitCase{name: "single/one-point", data: measured([]string{"x"}, crossProduct([]string{"x"}, []float64{4}), 3, 0.01, rng, line), param: "x"})
	add(fitCase{name: "single/two-points", data: measured([]string{"x"}, crossProduct([]string{"x"}, []float64{4, 8}), 3, 0.01, rng, line), param: "x"})
	add(fitCase{name: "single/three-points-cv", data: measured([]string{"x"}, crossProduct([]string{"x"}, []float64{4, 8, 16}), 3, 0.01, rng, line), param: "x", opt: cv})
	add(fitCase{name: "single/singular", data: measured([]string{"x"}, crossProduct([]string{"x"}, []float64{8, 8, 8, 8, 8}), 2, 0.05, rng, line), param: "x"})
	add(fitCase{name: "single/clamped", data: measured([]string{"x"}, crossProduct([]string{"x"}, []float64{0, 0.5, 1, 2, 4, 8}), 2, 0.01, rng, line), param: "x"})
	add(fitCase{name: "single/over-two-axes", data: measured([]string{"x", "y"}, crossProduct([]string{"x", "y"}, xs[:5], []float64{1, 2}), 2, 0.01, rng,
		func(c map[string]float64) float64 { return c["x"] * c["y"] }), param: "x"})

	// Multi-parameter searches on one extraction-shaped design: every
	// "function" shares the p x size grid, reps 3, like a sweep's datasets.
	ps, sizes := []float64{2, 4, 8, 16, 32}, []float64{10, 15, 20, 25, 30}
	two := []string{"p", "size"}
	design := crossProduct(two, ps, sizes)
	kernels := []struct {
		name string
		f    func(p, s float64) float64
		deps []string
	}{
		{"volume", func(p, s float64) float64 { return 1e-2 * s * s * s }, []string{"size"}},
		{"halo", func(p, s float64) float64 { return 3 + 0.5*s*s + 4*math.Log2(p) }, []string{"p", "size"}},
		{"product", func(p, s float64) float64 { return 2e-2 * math.Sqrt(p) * s * s * s }, []string{"p", "size"}},
		{"collective", func(p, s float64) float64 { return 9 * math.Log2(p) }, []string{"p"}},
		{"setup", func(p, s float64) float64 { return 17 }, nil},
		{"imbalance", func(p, s float64) float64 { return 5 + s*s*s/p }, []string{"p", "size"}},
	}
	for i, k := range kernels {
		f := k.f
		truth := func(c map[string]float64) float64 { return f(c["p"], c["size"]) }
		for _, rel := range []float64{0, 0.02, 0.08} {
			rng := rand.New(rand.NewSource(int64(1000 + 10*i)))
			d := measured(two, design, 3, rel, rng, truth)
			tag := fmt.Sprintf("multi/%s/rel%g", k.name, rel)
			prior := &Prior{ForceConstant: true}
			if len(k.deps) > 0 {
				prior = allow(k.deps...)
			}
			add(fitCase{name: tag + "/hybrid", data: d, prior: prior})
			add(fitCase{name: tag + "/blackbox", data: d})
		}
	}
	// Options and priors off the default path, on the same design.
	rng = rand.New(rand.NewSource(2024))
	coupled := measured(two, design, 3, 0.02, rng, func(c map[string]float64) float64 {
		return 4 + 0.3*c["p"]*c["size"] + c["size"]*c["size"]
	})
	add(fitCase{name: "multi/coupled/cv", data: coupled, opt: cv})
	add(fitCase{name: "multi/coupled/three-terms", data: coupled, opt: three})
	add(fitCase{name: "multi/coupled/no-products", data: coupled, prior: &Prior{MulOK: func([]string) bool { return false }}})
	add(fitCase{name: "multi/coupled/force-constant", data: coupled, prior: &Prior{ForceConstant: true}})
	add(fitCase{name: "multi/coupled/nothing-allowed", data: coupled, prior: allow()})

	// Three parameters: full cross product, then a sparse design whose
	// per-parameter sweeps hold fewer than three points.
	threeNames := []string{"p", "size", "iters"}
	cube := crossProduct(threeNames, []float64{2, 4, 8, 16}, []float64{8, 12, 16, 20}, []float64{1, 2, 4})
	rng = rand.New(rand.NewSource(3003))
	tri := measured(threeNames, cube, 2, 0.03, rng, func(c map[string]float64) float64 {
		return 1 + c["iters"]*(0.1*c["size"]*c["size"]*c["size"]+2*math.Log2(c["p"]))
	})
	add(fitCase{name: "multi/three/blackbox", data: tri})
	add(fitCase{name: "multi/three/hybrid", data: tri, prior: allow("p", "size", "iters")})
	add(fitCase{name: "multi/three/two-allowed", data: tri, prior: allow("size", "iters")})
	add(fitCase{name: "multi/three/three-terms", data: tri, opt: three})
	add(fitCase{name: "multi/three/cv", data: tri, opt: cv})
	add(fitCase{name: "multi/three/pairs-only", data: tri, prior: &Prior{MulOK: func(g []string) bool { return len(g) == 2 }}})
	sparse := measured(threeNames, crossProduct(threeNames, []float64{2, 4}, []float64{8, 16}, []float64{1, 2, 4, 8}), 2, 0.02, rng, func(c map[string]float64) float64 {
		return c["iters"] * c["size"]
	})
	add(fitCase{name: "multi/three/sparse", data: sparse})

	// Degenerate multi-parameter datasets.
	rng = rand.New(rand.NewSource(55))
	flat := func(map[string]float64) float64 { return 3.5 }
	add(fitCase{name: "multi/constant-metric", data: measured(two, design, 3, 0, rng, flat)})
	add(fitCase{name: "multi/zero-metric", data: measured(two, design, 1, 0, rng, func(map[string]float64) float64 { return 0 })})
	add(fitCase{name: "multi/one-axis-fixed", data: measured(two, crossProduct(two, ps, []float64{10}), 3, 0.02, rng, func(c map[string]float64) float64 { return c["p"] })})
	add(fitCase{name: "multi/all-points-equal", data: measured(two, crossProduct(two, []float64{4, 4, 4, 4}, []float64{10}), 2, 0.05, rng, flat)})
	add(fitCase{name: "multi/single-point", data: measured(two, crossProduct(two, []float64{4}, []float64{10}), 3, 0.05, rng, flat)})
	add(fitCase{name: "multi/one-param", data: measured([]string{"x"}, crossProduct([]string{"x"}, xs), 3, 0.02, rng, func(c map[string]float64) float64 { return 2 * c["x"] * math.Log2(c["x"]) })})
	add(fitCase{name: "multi/empty", data: NewDataset("p")})
	return cases
}

// fitBits is the golden record of one case: every float of the winning
// model as its IEEE-754 bit pattern, so a one-ulp drift fails.
type fitBits struct {
	Name     string   `json:"name"`
	Err      string   `json:"err,omitempty"`
	Expr     string   `json:"expr,omitempty"`
	Constant string   `json:"constant,omitempty"`
	Coeffs   []string `json:"coeffs,omitempty"`
	Terms    []string `json:"terms,omitempty"`
	RSS      string   `json:"rss,omitempty"`
	SMAPE    string   `json:"smape,omitempty"`
	CV       string   `json:"cv,omitempty"`
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func recordFit(c fitCase) fitBits {
	rec := fitBits{Name: c.name}
	m, err := c.fit()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Expr = m.String()
	rec.Constant = bitsOf(m.Constant)
	for _, t := range m.Terms {
		rec.Coeffs = append(rec.Coeffs, bitsOf(t.Coeff))
		shape := t
		shape.Coeff = 1
		rec.Terms = append(rec.Terms, shape.String())
	}
	rec.RSS, rec.SMAPE, rec.CV = bitsOf(m.RSS), bitsOf(m.SMAPE), bitsOf(m.CV)
	return rec
}

// TestFitBitsGolden pins the exact bits of every fitted float against
// testdata/fits_golden.json, which was written by the pre-columnar
// implementation (commit ff064e7). The search may be reorganized freely;
// its float operations may not be reordered.
func TestFitBitsGolden(t *testing.T) {
	cases := fitCases()
	if len(cases) < 30 {
		t.Fatalf("case table shrank to %d rows", len(cases))
	}
	got := make([]fitBits, len(cases))
	for i, c := range cases {
		got[i] = recordFit(c)
	}
	path := filepath.Join("testdata", "fits_golden.json")
	if *updateFits {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want []fitBits
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, table has %d", len(want), len(got))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("case %s drifted:\n got  %s\n want %s", got[i].Name, g, w)
		}
	}
}

// batchRequests turns the default-option rows of the table into one
// FitAll batch: an extraction's worth of hybrid and black-box requests,
// most of them measured on one shared design.
func batchRequests() []Request {
	var reqs []Request
	for _, c := range fitCases() {
		if c.opt.Space.MaxTerms == 0 && len(c.data.Points) > 0 {
			reqs = append(reqs, Request{Name: c.name, Dataset: c.data, Param: c.param, Prior: c.prior})
		}
	}
	return reqs
}

// TestFitAllSharesDesignsNotResults fits the batch on 4 goroutines, where
// requests on one design share a single grid, and requires the models of
// one-at-a-time fits bit for bit (run under -race in CI).
func TestFitAllSharesDesignsNotResults(t *testing.T) {
	reqs := batchRequests()
	fits := FitAll(reqs, DefaultOptions(), 4)
	for i, req := range reqs {
		var want *Model
		var err error
		if req.Param != "" {
			want, err = ModelSingle(req.Dataset, req.Param, DefaultOptions())
		} else {
			want, err = ModelMulti(req.Dataset, DefaultOptions(), req.Prior)
		}
		if err != nil || fits[i].Err != nil {
			t.Fatalf("%s: batch error %v, single error %v", req.Name, fits[i].Err, err)
		}
		if !reflect.DeepEqual(fits[i].Model, want) {
			t.Errorf("%s: batch fit %v differs from single fit %v", req.Name, fits[i].Model, want)
		}
	}
}

var fitSink []Fit

// BenchmarkFitAll times one extraction's worth of requests — the hybrid
// and the black-box fit of every default-option multi-parameter row of
// the golden table — through the batch entry point.
func BenchmarkFitAll(b *testing.B) {
	var reqs []Request
	for _, req := range batchRequests() {
		if req.Param == "" {
			reqs = append(reqs, req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSink = FitAll(reqs, DefaultOptions(), 1)
	}
}
