package core

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/apps"
)

// sharedView marshals everything of a report that reports of one Prepared
// may share: dependency maps, relevance, volumes, structures, census.
func sharedView(r *Report) string {
	vol := make(map[string][2]string, len(r.Volumes.ByFunc))
	for fn, e := range r.Volumes.ByFunc {
		vol[fn] = [2]string{e.String(), r.Volumes.LocalByFunc[fn].String()}
	}
	structs := make(map[string]string, len(r.Volumes.StructByFunc))
	for fn, st := range r.Volumes.StructByFunc {
		structs[fn] = st.String()
	}
	raw, err := json.Marshal(map[string]any{
		"loop": r.LoopDeps, "lib": r.LibDeps, "func": r.FuncDeps, "relevant": r.Relevant,
		"volumes": vol, "structures": structs, "recursion": r.Volumes.RecursionWarnings,
		"census": r.Census([]string{"p", "size"}),
	})
	if err != nil {
		// Only strings, bools and ints above; a failure still breaks every
		// comparison it takes part in.
		return "unmarshalable view: " + err.Error()
	}
	return string(raw)
}

// TestConcurrentAnalyzeSharesNothingMutable runs mixed configurations on
// one Prepared from 8 goroutines (under -race in CI). Reports share the
// plan and the interned aggregation results; whatever the later runs do
// must leave the first report's view byte-identical, and equal
// configurations must see equal views.
func TestConcurrentAnalyzeSharesNothingMutable(t *testing.T) {
	prep, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]apps.Config, 4)
	for i := range cfgs {
		cfgs[i] = apps.LULESHTaintConfig().Clone()
		cfgs[i]["size"] = float64(4 + i)
		cfgs[i]["p"] = float64(int(2) << i)
	}
	first, err := prep.Analyze(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	before := sharedView(first)

	const goroutines, rounds = 8, 3
	views := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				cfg := cfgs[(g+round)%len(cfgs)]
				rep, err := prep.Analyze(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				views[g] = append(views[g], sharedView(rep))
			}
		}(g)
	}
	wg.Wait()

	if after := sharedView(first); after != before {
		t.Fatal("later Analyze calls changed the first report")
	}
	byCfg := make(map[int]string)
	for g := range views {
		for round, v := range views[g] {
			ci := (g + round) % len(cfgs)
			if want, ok := byCfg[ci]; ok && v != want {
				t.Fatalf("configuration %d analyzed to two different views", ci)
			}
			byCfg[ci] = v
		}
	}
	if byCfg[0] != before {
		t.Fatal("concurrent analysis of the first configuration differs from the serial one")
	}
}

// TestDifferentialRecycledConcurrent sweeps the lulesh-large design from 8
// goroutines at once on one Prepared, each in an order of its own, so arenas
// change hands between runs of different sizes while other runs are in
// flight (under -race in CI). Every report must equal the one a sequential
// sweep on a Prepared of its own gives for that point.
func TestDifferentialRecycledConcurrent(t *testing.T) {
	var design []apps.Config
	for _, p := range []float64{2, 4, 8, 16} {
		for _, size := range []float64{11, 13, 15, 17} {
			cfg := apps.LULESHTaintConfig().Clone()
			cfg["p"], cfg["size"] = p, size
			design = append(design, cfg)
		}
	}
	seq, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(design))
	for i, cfg := range design {
		r, err := seq.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ReportView(r)
	}

	prep, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Odd goroutines descend, and each starts somewhere else.
			for n := range design {
				i := (n*(1+g%3*2) + g*5) % len(design)
				if g%2 == 1 {
					i = len(design) - 1 - i
				}
				r, err := prep.Analyze(design[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := ReportView(r); got != want[i] {
					t.Errorf("goroutine %d, point %v: the concurrent report differs from the sequential one", g, design[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
