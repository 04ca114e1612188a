package libdb

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/loopmodel"
	"repro/internal/taint"
)

func TestDefaultMPIEntries(t *testing.T) {
	db := DefaultMPI()
	for _, name := range []string{"MPI_Comm_size", "MPI_Comm_rank", "MPI_Send", "MPI_Allreduce", "MPI_Barrier"} {
		if _, ok := db.Lookup(name); !ok {
			t.Errorf("missing entry %s", name)
		}
	}
	if db.Relevant("MPI_Comm_size") {
		t.Error("MPI_Comm_size is a query, not performance-relevant")
	}
	if !db.Relevant("MPI_Allreduce") {
		t.Error("MPI_Allreduce must be relevant")
	}
	if db.Relevant("not_a_function") {
		t.Error("unknown function must not be relevant")
	}
}

// Build a program following the paper's pattern: read comm size via MPI,
// loop over it, and allreduce a buffer whose count is size-dependent.
func buildMPIApp(m *ir.Module) {
	b := ir.NewFunc(m, "main", 1) // param 0: size
	comm := b.Const(0)
	cell := b.Alloc(b.Const(1))
	b.Call("MPI_Comm_size", comm, cell)
	p := b.Load(cell, 0)
	b.For(b.Const(0), p, b.Const(1), func(i ir.Reg) {
		b.Work(b.Const(1))
	})
	send := b.Alloc(b.Const(8))
	recv := b.Alloc(b.Const(8))
	b.Call("MPI_Allreduce", send, recv, b.Param(0))
	b.RetVoid()
	b.Finish()
}

func TestCommSizeIsTaintSource(t *testing.T) {
	m := ir.NewModule("t")
	buildMPIApp(m)
	e := taint.NewEngine()
	mach := interp.NewMachine(m)
	mach.Taint = e
	db := DefaultMPI()
	db.Bind(mach, e, RunConfig{CommSize: 8, Rank: 0})

	size := e.Table.Base("size")
	if _, err := mach.Run("main", []interp.Value{5}, []taint.Label{size}); err != nil {
		t.Fatal(err)
	}
	deps := e.FuncLoopDeps()
	if got := deps["main"]; !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("loop deps = %v, want [p] (from MPI_Comm_size source)", got)
	}
}

func TestLibCallRecordsImplicitAndCountDeps(t *testing.T) {
	m := ir.NewModule("t")
	buildMPIApp(m)
	e := taint.NewEngine()
	mach := interp.NewMachine(m)
	mach.Taint = e
	db := DefaultMPI()
	db.Bind(mach, e, RunConfig{CommSize: 8, Rank: 0})

	size := e.Table.Base("size")
	if _, err := mach.Run("main", []interp.Value{5}, []taint.Label{size}); err != nil {
		t.Fatal(err)
	}
	libDeps := e.FuncLibDeps()
	got := libDeps["main"]
	// Allreduce contributes implicit p plus the size-tainted count argument.
	if !reflect.DeepEqual(got, []string{"p", "size"}) {
		t.Fatalf("lib deps = %v, want [p size]", got)
	}
	// One concrete call record with caller=main.
	found := false
	for k, r := range e.LibCalls {
		if k.Callee == "MPI_Allreduce" {
			found = true
			if k.Caller != "main" {
				t.Fatalf("caller = %q, want main", k.Caller)
			}
			if r.Count != 1 {
				t.Fatalf("count = %d, want 1", r.Count)
			}
		}
	}
	if !found {
		t.Fatal("no MPI_Allreduce record")
	}
}

func TestAllreduceCopiesBuffer(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "main", 0)
	send := b.Alloc(b.Const(2))
	recv := b.Alloc(b.Const(2))
	b.Store(send, 0, b.Const(11))
	b.Store(send, 1, b.Const(22))
	b.Call("MPI_Allreduce", send, recv, b.Const(2))
	v := b.Load(recv, 1)
	b.Ret(v)
	b.Finish()

	mach := interp.NewMachine(m)
	DefaultMPI().Bind(mach, nil, RunConfig{CommSize: 4})
	res, err := mach.Run("main", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 22 {
		t.Fatalf("allreduce copy = %d, want 22", res.Value)
	}
}

func TestCommRankUntainted(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "main", 0)
	cell := b.Alloc(b.Const(1))
	b.Call("MPI_Comm_rank", b.Const(0), cell)
	r := b.Load(cell, 0)
	b.Ret(r)
	b.Finish()

	e := taint.NewEngine()
	mach := interp.NewMachine(m)
	mach.Taint = e
	DefaultMPI().Bind(mach, e, RunConfig{CommSize: 4, Rank: 3})
	res, err := mach.Run("main", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Fatalf("rank = %d, want 3", res.Value)
	}
	if res.Label != taint.None {
		t.Fatal("rank must not be tainted")
	}
}

func TestExternVolume(t *testing.T) {
	db := DefaultMPI()
	ev := db.ExternVolume()
	if ev("unknown_function") != nil {
		t.Fatal("unknown function should have nil volume")
	}
	if ev("MPI_Comm_size") != nil {
		t.Fatal("irrelevant function should have nil volume")
	}
	e := ev("MPI_Allreduce")
	if e == nil {
		t.Fatal("allreduce must contribute volume")
	}
	if got := loopmodel.Params(e); !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("allreduce volume params = %v, want [p]", got)
	}
}

func TestMissingArgsError(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewFunc(m, "main", 0)
	b.Call("MPI_Comm_size")
	b.RetVoid()
	b.Finish()
	mach := interp.NewMachine(m)
	DefaultMPI().Bind(mach, nil, RunConfig{CommSize: 4})
	if _, err := mach.Run("main", nil, nil); err == nil {
		t.Fatal("expected arity error")
	}
}
