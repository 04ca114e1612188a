package modelreg

import (
	"context"
	"testing"

	"repro/internal/extrap"
	"repro/internal/runner"
)

// fitAllCounts fits the hybrid primary-metric requests of the datasets
// gathered so far — the interim fit a refit event once paid for — and
// counts its outcomes.
func fitAllCounts(pl *Pipeline) (fitted, failed int) {
	metric := pl.cfg.Metrics[0]
	var reqs []extrap.Request
	for _, fn := range pl.sortedFuncs() {
		if d := pl.data[fnMetric{fn: fn, metric: metric}]; d != nil {
			reqs = append(reqs, extrap.Request{Name: fn, Dataset: d, Prior: pl.taint.Prior(fn, pl.cfg.Params)})
		}
	}
	for _, f := range extrap.FitAll(reqs, extrap.DefaultOptions(), 2) {
		if f.Err != nil {
			failed++
		} else {
			fitted++
		}
	}
	return fitted, failed
}

// TestRefitCountsMatchFitAll: at every batch boundary of a Batch 4
// extraction, the refit event's Fitted and Failed are what FitAll over the
// same requests reports — also after a dataset turns unfittable mid-sweep.
func TestRefitCountsMatchFitAll(t *testing.T) {
	prep := prepareLULESH(t)
	d, err := testConfig().Resolve(prep.Spec, runner.MaxPoints)
	if err != nil {
		t.Fatal(err)
	}
	var pl *Pipeline
	var refits []Event
	onEvent := func(ev Event) {
		switch {
		case ev.Type == "point" && ev.Points == 5:
			// A repeat pair whose mean overflows: every fit of this
			// dataset fails from here on.
			ds := pl.data[fnMetric{fn: pl.sortedFuncs()[0], metric: pl.cfg.Metrics[0]}]
			ds.Add(ds.Points[0].Params, 1e308, 1e308)
		case ev.Type == "refit":
			refits = append(refits, ev)
			if fitted, failed := fitAllCounts(pl); ev.Fitted != fitted || ev.Failed != failed {
				t.Errorf("refit at %d points: fitted %d failed %d, FitAll: fitted %d failed %d",
					ev.Points, ev.Fitted, ev.Failed, fitted, failed)
			}
		}
	}
	pl, err = newPipeline(prep, d, 2, onEvent)
	if err != nil {
		t.Fatal(err)
	}
	if err := LocalSweep(runner.New(), prep)(context.Background(), pl.Configs(), pl.ConsumeSample); err != nil {
		t.Fatal(err)
	}
	if len(refits) != 2 || refits[0].Points != 4 || refits[1].Points != 8 {
		t.Fatalf("refit events %+v, want one at 4 and one at 8 points", refits)
	}
	if refits[0].Failed != 0 || refits[1].Failed != 1 || refits[1].Fitted == 0 {
		t.Fatalf("refit events %+v, want no failure at 4 points and exactly the poisoned one at 8", refits)
	}
}
