package interp_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/libdb"
)

// FuzzDifferentialEngines is the two-way differential fuzz gate of the fast
// engine: every input derives a seeded, always-terminating random module
// (the same generator as the table-driven differential tests) and executes
// it under the reference and fast engines.
// All observables must match bit-for-bit — result value and label mask,
// instruction counts, loop records (iterations, entries, label masks),
// branch records, library-call records, and recursion warnings; those
// are exactly the inputs the census and FuncDeps aggregations consume,
// so agreement here pins the whole pipeline. Each input also reruns with a
// truncated fuel budget derived from the fuzzed selector, sweeping abort
// points across the module: the fast engine must abort at the oracle's exact
// partial instruction count. The selector's top three bits add straight-line
// leaf functions (see fuzzShape), the callees the fast engine executes as
// call summaries, so the same sweep lands budgets before, inside and after
// summarized calls. Bits 8-11 of a positive third argument add the
// control-scope shapes (see scopeShapes), bits 8-15 of a positive second
// argument the counted-loop shapes (see countedShapes), whose loops the fast
// engine executes through loop summaries: there the budget and the sweep end
// runs inside the skipped iterations, in the last one and at the exit test.
// The engines under test run on one shared Program per input, each run on
// recycled memory (see primeArena), so what is fuzzed is what a sweep does:
// runs of different sizes and fuel handing one arena on.
//
// Run it as a fuzzer with:
//
//	go test ./internal/interp -run '^$' -fuzz FuzzDifferentialEngines -fuzztime 30s
//
// Under plain `go test` the committed corpus under
// testdata/fuzz/FuzzDifferentialEngines (plus the f.Add seeds) runs as
// regular regression cases.
func FuzzDifferentialEngines(f *testing.F) {
	f.Add(int64(13), int64(3), int64(-1), int64(2), uint16(0))
	f.Add(int64(7919), int64(8), int64(2), int64(1), uint16(7))
	f.Add(int64(31337), int64(0), int64(0), int64(0), uint16(255))
	f.Add(int64(-4), int64(5), int64(-3), int64(7), uint16(31))
	// Top three bits of the fuel selector set: modules with leaves.
	f.Add(int64(13), int64(3), int64(-1), int64(2), uint16(0xe005))
	f.Add(int64(7919), int64(8), int64(2), int64(1), uint16(0x6107))
	// Bits 8-11 of the third argument set: modules with scope shapes.
	f.Add(int64(13), int64(3), int64(-1), int64(0xf02), uint16(0))
	f.Add(int64(7919), int64(8), int64(2), int64(0x501), uint16(0x6107))
	// Bits 8-15 of the second argument set: modules with counted-loop shapes.
	f.Add(int64(13), int64(12), int64(0xff05), int64(1), uint16(40))
	f.Add(int64(7919), int64(9), int64(0x8d0e), int64(0x102), uint16(0x6107))
	f.Fuzz(func(t *testing.T, seed, a0, a1, a2 int64, fuelSel uint16) {
		mod := genModule(seed, fuzzShape(seed, a1, a2, fuelSel))
		verifyGenerated(t, mod)
		args := []int64{a0 % 16, a1 % 16, a2 % 16}
		// The budget bounds runaway generated modules (they terminate, but
		// possibly only after hundreds of millions of instructions) and
		// keeps fuzz throughput useful; an exhausted budget is itself a
		// compared observable — both engines must abort identically.
		// 20k keeps the slowest engine (the tree-walking reference, run
		// four times per input) well under the fuzzer's per-exec hang
		// threshold while still covering thousands of loop iterations.
		const budget = 20_000
		// Every run under test borrows its memory from this program's pool,
		// after a larger and a smaller run of the module (see primeArena).
		addDirty(mod)
		prog := interp.Predecode(mod)
		diffModesOn(t, mod, prog, args, budget, true)
		diffModesOn(t, mod, prog, args, budget, false)

		// Probe the full run length cheaply (fast engine, untainted); when
		// the module finishes within budget, rerun with a fuzzed truncation
		// point: as the corpus grows this sweeps every fuel value, inside
		// summarized calls and loops included.
		probe := interp.NewMachine(mod)
		probe.Fuel = budget
		libdb.DefaultMPI().Bind(probe, nil, libdb.RunConfig{CommSize: 8})
		res, err := probe.Run("main", args, nil)
		if err != nil || res.Instructions <= 1 {
			return
		}
		fuel := 1 + int64(fuelSel)%res.Instructions
		diffModesOn(t, mod, prog, args, fuel, true)
		diffModesOn(t, mod, prog, args, fuel, false)
	})
}

// fuzzShape derives the generator shape of one fuzz input, so one int64
// explores the whole generator space; bounds mirror the table-driven
// differential. The leaf count comes from the top three bits of the fuel
// selector, which are clear in every input committed before leaves existed:
// those inputs keep generating the modules they were committed for. The
// scope shapes likewise come from bits 8-11 of the third argument when it is
// positive — main only sees that argument modulo 16, and every input
// committed before the shapes existed keeps it below 256 — and the counted
// shapes, under the same rule, from bits 8-15 of the second argument.
func fuzzShape(seed, a1, a2 int64, fuelSel uint16) genConfig {
	cfg := genConfig{
		funcs:    int(uint64(seed) % 5),
		stmts:    2 + int(uint64(seed)>>3%7),
		maxDepth: 1 + int(uint64(seed)>>7%3),
		leaves:   int(fuelSel >> 13),
	}
	if a2 > 0 {
		cfg.scopes = uint8(a2>>8) & 15
	}
	if a1 > 0 {
		cfg.counted = uint8(a1 >> 8)
	}
	return cfg
}

// TestFuzzCorpusShapes pins the derivation from fuzz input to generator
// shape: if the mapping above changes, the committed corpus under
// testdata/fuzz no longer exercises the intended shapes and should be
// re-seeded. Inputs that ask for leaves must generate modules the fast
// engine summarizes calls in, inputs that ask for scope shapes modules that
// reach the scope-stack paths the shapes are named for, and inputs that ask
// for counted shapes modules whose loops carry the loop summaries the shapes
// say, or the fuzzer never reaches those paths.
func TestFuzzCorpusShapes(t *testing.T) {
	for _, in := range []struct {
		seed, a1, a2 int64
		fuelSel      uint16
	}{
		{13, -1, 2, 0}, {7919, 2, 1, 7}, {31337, 0, 0, 255}, {-4, -3, 7, 31},
		{13, -1, 2, 0xe005}, {7919, 2, 1, 0x6107}, {-777, 0, 5, 0xa040}, {424243, 1, 1, 0xc081}, {88001, -8, 3, 0x2011}, {31152, -94, -21, 0x80cb}, {999331, 6, 6, 0xe05a},
		{13, -1, 0xf02, 0}, {7919, 2, 0x501, 0x6107}, {101, 9, 0x102, 3}, {-31, 7, 0x20b, 250}, {424243, 1, 0x401, 0xc081}, {88001, -8, 0x803, 17},
		{13, 0xff05, 1, 40}, {7919, 0x8d0e, 0x102, 0x6107}, {101, 0x010c, 2, 3}, {-31, 0x8409, 11, 250}, {424243, 0x6083, 1, 0xc081}, {88001, 0x1806, 3, 17}, {999331, 0xff0d, 6, 90}, {13, 0x0402, 2, 40},
	} {
		cfg := fuzzShape(in.seed, in.a1, in.a2, in.fuelSel)
		if cfg.funcs < 0 || cfg.funcs > 4 || cfg.stmts < 2 || cfg.stmts > 8 || cfg.maxDepth < 1 || cfg.maxDepth > 3 || cfg.leaves > 7 || cfg.scopes > 15 {
			t.Fatalf("seed %d derives out-of-bounds shape %+v", in.seed, cfg)
		}
		if want := uint8(max(in.a1, 0) >> 8); cfg.counted != want {
			t.Fatalf("seed %d second argument %#x derives counted shapes %#x, want %#x", in.seed, in.a1, cfg.counted, want)
		}
		if (cfg.leaves > 0) != (in.fuelSel >= 1<<13) {
			t.Fatalf("seed %d selector %#x derives %d leaves", in.seed, in.fuelSel, cfg.leaves)
		}
		if want := uint8(max(in.a2, 0) >> 8); cfg.scopes != want {
			t.Fatalf("seed %d third argument %#x derives scope shapes %#x, want %#x", in.seed, in.a2, cfg.scopes, want)
		}
		mod := genModule(in.seed, cfg)
		if mod == nil {
			t.Fatalf("seed %d generated no module", in.seed)
		}
		if n := interp.Predecode(mod).NumSummarized(); (n > 0) != (cfg.leaves > 0) {
			t.Fatalf("seed %d selector %#x (%d leaves): %d functions summarized", in.seed, in.fuelSel, cfg.leaves, n)
		}
		requireScopePaths(t, mod, cfg.scopes)
		requireCountedSummaries(t, mod, cfg.counted)
	}
}
