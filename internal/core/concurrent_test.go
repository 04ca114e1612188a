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
