package appgen

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// builder accumulates one generated spec plus its modeling design. All
// randomness flows through r, so generation is deterministic per seed.
type builder struct {
	r      *rand.Rand
	spec   *apps.Spec
	design modelreg.Config
	main   *apps.FuncSpec
}

// intn draws uniformly from [lo, hi].
func (b *builder) intn(lo, hi int) int { return lo + b.r.Intn(hi-lo+1) }

// f draws uniformly from [lo, hi).
func (b *builder) f(lo, hi float64) float64 { return lo + b.r.Float64()*(hi-lo) }

// begin initializes the spec with its parameters and main function and
// declares the sweep axes (p first, then the spec parameters in order).
func (b *builder) begin(params []string, axes ...[]float64) {
	b.spec = &apps.Spec{Params: params}
	b.main = &apps.FuncSpec{Name: "main", Kind: apps.KindMain, WorkNanos: b.f(5, 15)}
	b.spec.Funcs = []*apps.FuncSpec{b.main}
	b.design = modelreg.Config{
		Params:   append([]string{"p"}, params...),
		Axes:     []runner.Axis{{Param: "p", Values: []float64{2, 4, 8}}},
		Reps:     3,
		RelNoise: 0.01,
		Batch:    -1,
	}
	for i, prm := range params {
		b.design.Axes = append(b.design.Axes, runner.Axis{Param: prm, Values: axes[i]})
	}
}

// fn registers a non-main function and returns its name.
func (b *builder) fn(f *apps.FuncSpec) string {
	b.spec.Funcs = append(b.spec.Funcs, f)
	return f.Name
}

// useMPI records MPI routines in the spec's census surface (idempotent).
func (b *builder) useMPI(names ...string) {
	for _, n := range names {
		found := false
		for _, m := range b.spec.MPIUsed {
			if m == n {
				found = true
				break
			}
		}
		if !found {
			b.spec.MPIUsed = append(b.spec.MPIUsed, n)
		}
	}
}

// fillers adds the census filler population every archetype carries —
// inline-estimated getters (the A3 false-negative class), a helper with
// a compile-time-constant loop (statically pruned), and a helper with a
// runtime-constant loop (dynamically pruned) — and returns calls that
// make each of them reachable from main.
func (b *builder) fillers() []apps.Stmt {
	var calls []apps.Stmt
	for i, n := 0, b.intn(1, 3); i < n; i++ {
		name := b.fn(&apps.FuncSpec{
			Name:           fmt.Sprintf("get_field_%d", i),
			Kind:           apps.KindGetter,
			WorkNanos:      2,
			InlineEstimate: true,
			Body:           []apps.Stmt{apps.Work{Units: 1}},
		})
		calls = append(calls, apps.Call{Callee: name})
	}
	static := b.fn(&apps.FuncSpec{
		Name:      "init_tables",
		Kind:      apps.KindHelper,
		WorkNanos: b.f(5, 20),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(float64(b.intn(3, 8))),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})
	dyn := b.fn(&apps.FuncSpec{
		Name:      "read_config",
		Kind:      apps.KindHelper,
		WorkNanos: b.f(5, 20),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.RuntimeConst, Bound: apps.Q(float64(b.intn(9, 14))),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})
	return append(calls, apps.Call{Callee: static}, apps.Call{Callee: dyn})
}

// qty builds coeff * name^pow.
func qty(coeff float64, name string, pow int) apps.Quantity {
	return apps.QP(coeff, name, pow)
}

// stencil generates the compute-bound archetype: a timestep loop over
// polynomial kernels with one residual collective per step. Kernel
// iteration counts are pure size-monomials; the only p dependence is the
// residual reduction.
func (b *builder) stencil() {
	b.begin([]string{"size", "iters"},
		[]float64{4, 6, 8, 10}, []float64{2, 3, 4})

	var kernels []string
	for i, n := 0, b.intn(2, 3); i < n; i++ {
		d := b.intn(1, 3)
		body := []apps.Stmt{apps.Work{Units: float64(b.intn(1, 3))}}
		if b.r.Intn(2) == 0 {
			body = append(body, apps.Loop{Kind: apps.StaticConst,
				Bound: apps.Q(float64(b.intn(2, 4))),
				Body:  []apps.Stmt{apps.Work{Units: 1}}})
		}
		kernels = append(kernels, b.fn(&apps.FuncSpec{
			Name:         fmt.Sprintf("sweep_dim%d_%d", d, i),
			Kind:         apps.KindKernel,
			WorkNanos:    b.f(30, 60),
			MemIntensity: b.f(0, 0.25),
			Body: []apps.Stmt{
				apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", d), Body: body},
			},
		}))
	}
	residual := b.fn(&apps.FuncSpec{
		Name:      "reduce_residual",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Call{Callee: "MPI_Allreduce", CountArg: ptr(apps.Q(float64(b.intn(1, 4))))},
		},
	})
	b.useMPI("MPI_Allreduce")

	step := []apps.Stmt{apps.Work{Units: 1}}
	for _, k := range kernels {
		step = append(step, apps.Call{Callee: k})
	}
	step = append(step, apps.Call{Callee: residual})
	b.main.Body = append(b.fillers(),
		apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "iters", 1), Body: step})
}

// halo generates the communication-heavy archetype: per-step neighbor
// exchanges whose message sizes grow in the mesh surface, a rank loop
// over p, and a collective.
func (b *builder) halo() {
	b.begin([]string{"size", "steps"},
		[]float64{4, 6, 8, 12}, []float64{2, 3, 4})

	pack := b.fn(&apps.FuncSpec{
		Name:         "pack_boundary",
		Kind:         apps.KindKernel,
		WorkNanos:    b.f(20, 40),
		MemIntensity: b.f(0.1, 0.4),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", b.intn(1, 2)),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})
	compute := b.fn(&apps.FuncSpec{
		Name:         "relax_interior",
		Kind:         apps.KindKernel,
		WorkNanos:    b.f(25, 50),
		MemIntensity: b.f(0, 0.3),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", 2),
				Body: []apps.Stmt{apps.Work{Units: float64(b.intn(1, 2))}}},
		},
	})
	surf := b.intn(1, 2)
	exchange := b.fn(&apps.FuncSpec{
		Name:      "exchange_halo",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(float64(b.intn(2, 4))),
				Body: []apps.Stmt{
					apps.Call{Callee: "MPI_Isend", CountArg: ptr(qty(float64(b.intn(1, 3)), "size", surf))},
					apps.Call{Callee: "MPI_Irecv", CountArg: ptr(qty(1, "size", surf))},
				}},
			apps.Call{Callee: "MPI_Waitall"},
		},
	})
	b.useMPI("MPI_Isend", "MPI_Irecv", "MPI_Waitall")

	step := []apps.Stmt{
		apps.Call{Callee: pack},
		apps.Call{Callee: compute},
		apps.Call{Callee: exchange},
	}
	if b.r.Intn(2) == 0 {
		ring := b.fn(&apps.FuncSpec{
			Name:      "ring_shift",
			Kind:      apps.KindComm,
			WorkNanos: 10,
			Body: []apps.Stmt{
				apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "p", 1),
					Body: []apps.Stmt{
						apps.Call{Callee: "MPI_Send", CountArg: ptr(qty(1, "size", 1))},
					}},
			},
		})
		b.useMPI("MPI_Send")
		step = append(step, apps.Call{Callee: ring})
	}
	coll := []string{"MPI_Allgather", "MPI_Bcast", "MPI_Alltoall"}[b.r.Intn(3)]
	collective := b.fn(&apps.FuncSpec{
		Name:      "sync_global",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Call{Callee: coll, CountArg: ptr(qty(1, "size", 1))},
		},
	})
	b.useMPI(coll)
	step = append(step, apps.Call{Callee: collective})

	b.main.Body = append(b.fillers(),
		apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "steps", 1), Body: step})
}

// stream generates the memory-bound archetype: high-memory-intensity
// linear loops with no code-level dependence on p. Any p-term a
// black-box fit discovers comes from bandwidth contention — a machine
// effect the taint proof vetoes (the paper's C1 experiment).
func (b *builder) stream() {
	b.begin([]string{"n"}, []float64{64, 96, 128, 160})

	names := []string{"stream_copy", "stream_scale", "stream_add", "stream_triad"}
	var kernels []string
	for i, n := 0, b.intn(2, 4); i < n; i++ {
		kernels = append(kernels, b.fn(&apps.FuncSpec{
			Name:         names[i],
			Kind:         apps.KindKernel,
			WorkNanos:    b.f(10, 25),
			MemIntensity: b.f(0.6, 0.95),
			Body: []apps.Stmt{
				apps.Loop{Kind: apps.ParamBound, Bound: qty(float64(b.intn(1, 2)), "n", 1),
					Body: []apps.Stmt{apps.Work{Units: float64(b.intn(1, 2))}}},
			},
		}))
	}
	checksum := b.fn(&apps.FuncSpec{
		Name:         "checksum",
		Kind:         apps.KindKernel,
		WorkNanos:    b.f(8, 15),
		MemIntensity: b.f(0, 0.2),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "n", 1),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})

	rounds := []apps.Stmt{}
	for _, k := range kernels {
		rounds = append(rounds, apps.Call{Callee: k})
	}
	rounds = append(rounds, apps.Call{Callee: checksum})
	b.main.Body = append(b.fillers(),
		apps.Loop{Kind: apps.RuntimeConst, Bound: apps.Q(float64(b.intn(3, 5))), Body: rounds})
}

// masterWorker generates the load-imbalanced archetype: tasks are
// scattered to ranks, each rank works through a tasks/p divided loop
// bound (floor division — outside the PMNF space, still a taint-visible
// {tasks, p} dependence), and results are gathered back. The worker
// carries ImbalanceSkew, a scheduling effect the measurement layer adds
// on top of the rank-symmetric ground truth.
func (b *builder) masterWorker() {
	b.begin([]string{"tasks"}, []float64{64, 96, 128, 160})

	distribute := b.fn(&apps.FuncSpec{
		Name:      "distribute_tasks",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Call{Callee: "MPI_Scatter",
				CountArg: ptr(qty(float64(b.intn(1, 2)), "tasks", 1).Times("p", -1))},
		},
	})
	worker := b.fn(&apps.FuncSpec{
		Name:          "process_chunk",
		Kind:          apps.KindKernel,
		WorkNanos:     b.f(40, 80),
		MemIntensity:  b.f(0, 0.3),
		ImbalanceSkew: b.f(0.15, 0.4),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "tasks", 1).Times("p", -1),
				Body: []apps.Stmt{
					apps.Work{Units: float64(b.intn(2, 4))},
					apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(float64(b.intn(2, 4))),
						Body: []apps.Stmt{apps.Work{Units: 1}}},
				}},
		},
	})
	collect := b.fn(&apps.FuncSpec{
		Name:      "collect_results",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Call{Callee: "MPI_Gather", CountArg: ptr(qty(1, "tasks", 1).Times("p", -1))},
		},
	})
	sync := b.fn(&apps.FuncSpec{
		Name:      "sync_epoch",
		Kind:      apps.KindComm,
		WorkNanos: 5,
		Body:      []apps.Stmt{apps.Call{Callee: "MPI_Barrier"}},
	})
	b.useMPI("MPI_Scatter", "MPI_Gather", "MPI_Barrier")

	b.main.Body = append(b.fillers(),
		apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(float64(b.intn(2, 3))),
			Body: []apps.Stmt{
				apps.Call{Callee: distribute},
				apps.Call{Callee: worker},
				apps.Call{Callee: collect},
			}},
		apps.Call{Callee: sync})
}

// mixed generates the deep-call-tree archetype: region-partitioned
// divided bounds, a parameter-driven branch selecting between execution
// variants (a tainted non-loop branch the dependency sets must NOT
// absorb), and a collective exchange, three calls deep from main.
func (b *builder) mixed() {
	b.begin([]string{"size", "regions"},
		[]float64{6, 8, 10}, []float64{2, 3, 4})

	regionUpdate := b.fn(&apps.FuncSpec{
		Name:         "region_update",
		Kind:         apps.KindKernel,
		WorkNanos:    b.f(30, 60),
		MemIntensity: b.f(0, 0.3),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", 2).Times("regions", -1),
				Body: []apps.Stmt{apps.Work{Units: float64(b.intn(1, 3))}}},
		},
	})
	kernel := b.fn(&apps.FuncSpec{
		Name:         "smooth_field",
		Kind:         apps.KindKernel,
		WorkNanos:    b.f(25, 50),
		MemIntensity: b.f(0, 0.2),
		Body: []apps.Stmt{
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", b.intn(1, 2)),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})
	// The branch selects how often the kernel runs, not whether distinct
	// code exists in each arm. The arms differ by call multiplicity, not
	// by loops: a loop (of any bound kind) inside the arm would absorb
	// the condition's parameter through control-flow taint propagation,
	// while call multiplicity leaves the callee's loop records — and
	// therefore every dependency set — untouched. The condition parameter
	// (regions) must appear only in the tainted-branch report, never in
	// solve_region's dependency set.
	solve := b.fn(&apps.FuncSpec{
		Name:      "solve_region",
		Kind:      apps.KindKernel,
		WorkNanos: b.f(20, 40),
		Body: []apps.Stmt{
			apps.Branch{
				Param: "regions",
				Less:  float64(b.intn(3, 4)),
				Then: []apps.Stmt{
					apps.Call{Callee: kernel},
					apps.Call{Callee: kernel},
				},
				Else: []apps.Stmt{apps.Call{Callee: kernel}},
			},
			apps.Loop{Kind: apps.ParamBound, Bound: qty(1, "size", 1),
				Body: []apps.Stmt{apps.Work{Units: 1}}},
		},
	})
	coll := []string{"MPI_Allreduce", "MPI_Allgather"}[b.r.Intn(2)]
	countArg := ptr(qty(1, "size", 1))
	exchange := b.fn(&apps.FuncSpec{
		Name:      "exchange_regions",
		Kind:      apps.KindComm,
		WorkNanos: 10,
		Body: []apps.Stmt{
			apps.Call{Callee: coll, CountArg: countArg},
		},
	})
	b.useMPI(coll)

	b.main.Body = append(b.fillers(),
		apps.Loop{Kind: apps.StaticConst, Bound: apps.Q(float64(b.intn(2, 3))),
			Body: []apps.Stmt{
				apps.Call{Callee: regionUpdate},
				apps.Call{Callee: solve},
				apps.Call{Callee: exchange},
			}})
}

// ptr boxes a Quantity for Call.CountArg.
func ptr(q apps.Quantity) *apps.Quantity { return &q }
