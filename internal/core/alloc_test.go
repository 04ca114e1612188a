package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apps"
)

// TestAnalyzeAllocationCeiling holds the line on what a design point
// allocates once its Prepared is warm: the run's heap, shadow and engine
// scratch come from the program's arena pool and the taint records from
// slabs, so a steady-state Analyze allocates a fraction of what the first
// call on the Prepared did, in few objects. A per-run make of an arena or a
// per-record new would show here before it shows in a benchmark. One P and no
// collection during the window, so that the pool keeps what it was given; the
// race detector makes sync.Pool drop a quarter of what it is given, hence the
// minimum over several calls.
func TestAnalyzeAllocationCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prep, err := Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(cfg apps.Config) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := prep.Analyze(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	steady := func(cfg apps.Config) (bytes, objects uint64) {
		bytes, objects = analyze(cfg)
		for range 9 {
			b, o := analyze(cfg)
			bytes, objects = min(bytes, b), min(objects, o)
		}
		return bytes, objects
	}
	large := apps.LULESHTaintConfig().Clone()
	large["p"], large["size"] = 8, 17
	first, _ := analyze(large)
	bytes, _ := steady(large)
	// 1,446 KB cold against 101 KB warm, all of it the engine's records and
	// maps. With a heap and a shadow made per run it was 472 KB, a third of
	// the first call; either of the two alone is past a sixth.
	if bytes > first/6 {
		t.Errorf("steady-state Analyze at p=8 size=17 allocates %d bytes, the first call on the Prepared %d: want at most a sixth", bytes, first)
	}
	// 1,110 objects before arenas were recycled and records came from slabs,
	// 68 after.
	if _, objects := steady(apps.LULESHTaintConfig()); objects > 200 {
		t.Errorf("steady-state Analyze at the taint configuration allocates %d objects, want at most 200", objects)
	}
	t.Logf("p=8 size=17: first call %d bytes, steady state %d", first, bytes)
}
