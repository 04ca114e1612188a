package apps

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mpisim"
)

// planSpec is a small call DAG with one of everything the plan has to get
// right: a callee named twice in one body, calls in both arms of a branch,
// a leaf shared by three callers, a zero-trip loop, an unreachable
// function and a routine listed twice.
func planSpec() *Spec {
	count := QP(8, "n", 1)
	return &Spec{
		Name:    "plan",
		Params:  []string{"n"},
		MPIUsed: []string{"MPI_Isend", "MPI_Barrier", "MPI_Isend"},
		Funcs: []*FuncSpec{
			{Name: "main", Kind: KindMain, WorkNanos: 1, Body: []Stmt{
				Call{Callee: "b"},
				Loop{Kind: ParamBound, Bound: QP(2, "n", 1), Body: []Stmt{Call{Callee: "a"}, Call{Callee: "b"}}},
				Loop{Kind: StaticConst, Bound: Q(0), Body: []Stmt{Call{Callee: "MPI_Barrier"}}},
				Call{Callee: "leaf"},
			}},
			{Name: "leaf", Kind: KindGetter, WorkNanos: 2, Body: []Stmt{Work{Units: 3}}},
			{Name: "a", Kind: KindKernel, WorkNanos: 1, Body: []Stmt{
				Branch{Param: "n", Less: 10,
					Then: []Stmt{Call{Callee: "leaf"}},
					Else: []Stmt{Call{Callee: "MPI_Isend", CountArg: &count}, Call{Callee: "far"}}},
			}},
			{Name: "b", Kind: KindKernel, WorkNanos: 1, Body: []Stmt{
				Work{Units: 5},
				Loop{Kind: StaticConst, Bound: Q(4), Body: []Stmt{Call{Callee: "leaf"}}},
			}},
			{Name: "far", Kind: KindKernel, WorkNanos: 1, Body: []Stmt{Work{Units: 7}}},
			{Name: "orphan", Kind: KindHelper, WorkNanos: 1, Body: []Stmt{Call{Callee: "leaf"}}},
		},
	}
}

func TestCompilePlanShape(t *testing.T) {
	pl, err := Compile(planSpec())
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"main", "leaf", "a", "b", "far", "orphan", "MPI_Isend", "MPI_Barrier"}; !reflect.DeepEqual(pl.Targets, want) {
		t.Errorf("Targets = %v, want %v", pl.Targets, want)
	}
	if want := []int32{6, 7, 6}; !reflect.DeepEqual(pl.MPIUsed, want) {
		t.Errorf("MPIUsed = %v, want %v (a routine listed twice keeps both entries)", pl.MPIUsed, want)
	}
	// Distinct callees per caller, in first-appearance order over both arms.
	var edges [][2]string
	for e := range pl.EdgeTo {
		edges = append(edges, [2]string{pl.Targets[pl.EdgeFrom[e]], pl.Targets[pl.EdgeTo[e]]})
	}
	wantEdges := [][2]string{
		{"main", "b"}, {"main", "a"}, {"main", "MPI_Barrier"}, {"main", "leaf"},
		{"a", "leaf"}, {"a", "MPI_Isend"}, {"a", "far"},
		{"b", "leaf"},
		{"orphan", "leaf"},
	}
	if !reflect.DeepEqual(edges, wantEdges) {
		t.Errorf("edges = %v, want %v", edges, wantEdges)
	}
	if want := []bool{true, false, true, false, false, false}; !reflect.DeepEqual(pl.ReachesMPI, want) {
		t.Errorf("ReachesMPI = %v, want %v", pl.ReachesMPI, want)
	}
	pos := make(map[int32]int)
	for i, f := range pl.order {
		pos[f] = i
	}
	if len(pos) != len(pl.funcs) {
		t.Fatalf("order %v does not list every function once", pl.order)
	}
	for e, to := range pl.EdgeTo {
		if int(to) < len(pl.funcs) && pos[pl.EdgeFrom[e]] >= pos[to] {
			t.Errorf("order %v puts callee %s before its caller %s", pl.order, pl.Targets[to], pl.Targets[pl.EdgeFrom[e]])
		}
	}
	if pl.Index("leaf") != 1 || pl.Index("MPI_Barrier") != 7 || pl.Index("nobody") != -1 {
		t.Errorf("Index: leaf %d, MPI_Barrier %d, nobody %d", pl.Index("leaf"), pl.Index("MPI_Barrier"), pl.Index("nobody"))
	}
}

// TestCompileErrorIsValidates: a plan exists only for a spec that
// validates, and the refusal is Validate's own.
func TestCompileErrorIsValidates(t *testing.T) {
	bad := planSpec()
	bad.Funcs[4].Body = append(bad.Funcs[4].Body, Call{Callee: "a"}) // a -> far -> a
	want := bad.Validate()
	if want == nil {
		t.Fatal("spec with a call cycle validates")
	}
	if pl, err := Compile(bad); pl != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Compile = %v, %v; want Validate's error %q", pl, err, want)
	}
}

// TestEvaluateByHand checks every total of planSpec against values worked
// out on paper, on both sides of the branch.
func TestEvaluateByHand(t *testing.T) {
	pl, err := Compile(planSpec())
	if err != nil {
		t.Fatal(err)
	}
	cost := mpisim.DefaultCost()
	for _, c := range []struct {
		n       float64
		calls   map[string]float64 // absent: not reached
		isendAt float64            // messages sent
	}{
		// n = 3: main runs a and b 6 times in the loop and b once more; a
		// takes the Then arm.
		{3, map[string]float64{"main": 1, "b": 7, "a": 6, "leaf": 1 + 6 + 28, "MPI_Barrier": 0}, 0},
		// n = 12: 24 trips; a takes the Else arm.
		{12, map[string]float64{"main": 1, "b": 25, "a": 24, "leaf": 1 + 100, "far": 24, "MPI_Isend": 24, "MPI_Barrier": 0}, 24},
	} {
		g, err := pl.Evaluate(Config{"n": c.n, "p": 4}, cost)
		if err != nil {
			t.Fatal(err)
		}
		for tgt, name := range pl.Targets {
			want, reached := c.calls[name]
			if g.Reached[tgt] != reached || g.Calls[tgt] != want {
				t.Errorf("n=%g: %s: calls %g reached %t, want %g %t", c.n, name, g.Calls[tgt], g.Reached[tgt], want, reached)
			}
		}
		near := func(what string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("n=%g: %s = %g, want %g", c.n, what, got, want)
			}
		}
		near("leaf exclusive", g.ExclSeconds[pl.Index("leaf")], c.calls["leaf"]*3*2e-9)
		near("b exclusive", g.ExclSeconds[pl.Index("b")], c.calls["b"]*5e-9)
		near("far exclusive", g.ExclSeconds[pl.Index("far")], c.calls["far"]*7e-9)
		comm := c.isendAt * cost.P2P(8*c.n)
		near("MPI_Isend seconds", g.CommSeconds[pl.Index("MPI_Isend")], comm)
		near("a's communication", g.CommByCaller[pl.Index("a")], comm)
		total := comm
		for _, name := range []string{"leaf", "b", "far"} {
			total += g.ExclSeconds[pl.Index(name)]
		}
		near("total", g.TotalSeconds(), total)
		if e := g.ExclSeconds[pl.Index("orphan")]; e != 0 {
			t.Errorf("n=%g: unreachable orphan has %g exclusive seconds", c.n, e)
		}
	}
}

// TestEvaluateDeterministic: one plan, one configuration, one result — bit
// for bit, however often it is asked. (What the fixed order is, is in
// Evaluate's comment; internal/cluster holds it to the evaluator it
// replaced.)
func TestEvaluateDeterministic(t *testing.T) {
	milc := MILCDefaults()
	milc["size"], milc["p"] = 64, 32
	lulesh := LULESHDefaults()
	lulesh["size"], lulesh["p"] = 13, 8
	for _, c := range []struct {
		spec *Spec
		cfg  Config
	}{{MILC(), milc}, {LULESH(), lulesh}} {
		pl, err := Compile(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var first *Ground
		for i := 0; i < 100; i++ {
			g, err := pl.Evaluate(c.cfg, mpisim.DefaultCost())
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = g
				continue
			}
			for _, s := range [][2][]float64{
				{first.Calls, g.Calls}, {first.ExclSeconds, g.ExclSeconds}, {first.CommByCaller, g.CommByCaller},
				{first.CommSeconds, g.CommSeconds}, {first.CallsFrom, g.CallsFrom}, {{first.total}, {g.total}},
			} {
				for k := range s[0] {
					if math.Float64bits(s[0][k]) != math.Float64bits(s[1][k]) {
						t.Fatalf("%s: evaluation %d differs from the first", c.spec.Name, i)
					}
				}
			}
			if !reflect.DeepEqual(first.Reached, g.Reached) {
				t.Fatalf("%s: evaluation %d reaches other targets than the first", c.spec.Name, i)
			}
		}
	}
}
