// Package libdb implements the global-state library database of Section
// 5.3: a description of performance-relevant library functions, the implicit
// parameters their runtimes hide from the user (the size of the global
// communicator, p), functions acting as taint sources (MPI_Comm_size), and
// analytical dependency templates for communication and synchronization
// routines derived from the literature's cost models.
package libdb

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/loopmodel"
	"repro/internal/taint"
)

// CostShape classifies the analytic parametric shape of a library routine,
// following Thakur/Rabenseifner/Gropp-style collective models.
type CostShape int

// Cost shapes of library routines with respect to the implicit communicator
// size p and the message size m.
const (
	CostConst   CostShape = iota // rank queries, wait
	CostP2P                      // alpha + beta*m
	CostLogP                     // barrier: alpha*log2(p)
	CostMLogP                    // bcast/reduce/allreduce: (alpha + beta*m)*log2(p)
	CostLinearP                  // gather/scatter: alpha*p + beta*m*p
)

// Entry describes one library function.
type Entry struct {
	Name string
	// Relevant functions block static pruning of their callers (Section 5.1)
	// and add dependencies to models.
	Relevant bool
	// ImplicitParams are parameters hidden in the library runtime; for MPI
	// communication routines this is {p}.
	ImplicitParams []string
	// SourceArg, when >= 0, marks the pointer argument through which the
	// routine writes a value tainted with SourceParam (MPI_Comm_size).
	SourceArg   int
	SourceParam string
	// CountArg, when >= 0, is the message-count argument whose taint labels
	// become additional parametric dependencies of the call.
	CountArg int
	Shape    CostShape
}

// DB is a set of library entries keyed by function name.
type DB struct {
	Entries map[string]Entry
}

// New returns an empty database.
func New() *DB { return &DB{Entries: make(map[string]Entry)} }

// Add registers e, replacing any previous entry of the same name.
func (db *DB) Add(e Entry) { db.Entries[e.Name] = e }

// Lookup returns the entry for name.
func (db *DB) Lookup(name string) (Entry, bool) {
	e, ok := db.Entries[name]
	return e, ok
}

// Relevant reports whether name is a performance-relevant library function;
// it is the predicate handed to the static pruning pass.
func (db *DB) Relevant(name string) bool {
	e, ok := db.Entries[name]
	return ok && e.Relevant
}

// MPIParam is the conventional name of the implicit global-communicator
// size parameter.
const MPIParam = "p"

// DefaultMPI returns the MPI database shipped with Perf-Taint: the widely
// used subset of point-to-point and collective routines with their shapes.
func DefaultMPI() *DB {
	db := New()
	for _, e := range []Entry{
		{Name: "MPI_Comm_size", Relevant: false, SourceArg: 1, SourceParam: MPIParam, CountArg: -1, Shape: CostConst},
		{Name: "MPI_Comm_rank", Relevant: false, SourceArg: -1, CountArg: -1, Shape: CostConst},
		{Name: "MPI_Send", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostP2P},
		{Name: "MPI_Recv", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostP2P},
		{Name: "MPI_Isend", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostP2P},
		{Name: "MPI_Irecv", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostP2P},
		{Name: "MPI_Wait", Relevant: true, ImplicitParams: nil, SourceArg: -1, CountArg: -1, Shape: CostConst},
		{Name: "MPI_Waitall", Relevant: true, ImplicitParams: nil, SourceArg: -1, CountArg: -1, Shape: CostConst},
		{Name: "MPI_Barrier", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: -1, Shape: CostLogP},
		{Name: "MPI_Bcast", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostMLogP},
		{Name: "MPI_Reduce", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 2, Shape: CostMLogP},
		{Name: "MPI_Allreduce", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 2, Shape: CostMLogP},
		{Name: "MPI_Gather", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostLinearP},
		{Name: "MPI_Allgather", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostLinearP},
		{Name: "MPI_Scatter", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostLinearP},
		{Name: "MPI_Alltoall", Relevant: true, ImplicitParams: []string{MPIParam}, SourceArg: -1, CountArg: 1, Shape: CostLinearP},
	} {
		db.Add(e)
	}
	return db
}

// RunConfig carries the simulated library runtime state for one tainted
// execution: the process count behind the implicit parameter and the rank
// the single-process taint run observes.
type RunConfig struct {
	CommSize int64
	Rank     int64
}

// Bind installs interpreter externs for every database entry on mach. When
// engine is non-nil the externs act as taint sources and record library
// calls with their parametric dependencies. Collectives behave functionally
// for a single-rank view: buffers pass through unchanged.
func (db *DB) Bind(mach *interp.Machine, engine *taint.Engine, cfg RunConfig) {
	for name := range db.Entries {
		entry := db.Entries[name]
		mach.Externs[name] = func(c *interp.ExternCall) (interp.Value, error) {
			return db.execute(entry, c, engine, cfg)
		}
	}
}

func (db *DB) execute(e Entry, c *interp.ExternCall, engine *taint.Engine, cfg RunConfig) (interp.Value, error) {
	// Dependency recording: implicit params plus count-argument labels.
	if engine != nil && e.Relevant {
		l := taint.None
		for _, p := range e.ImplicitParams {
			l |= engine.Table.Base(p)
		}
		if e.CountArg >= 0 && e.CountArg < len(c.ArgLabels) {
			l |= c.ArgLabels[e.CountArg]
		}
		// Route through the call-site record cache: O(1) per call under the
		// fast engine's interned paths, map-backed under the reference one.
		c.RecordLibCall(engine, l)
	}
	switch e.Name {
	case "MPI_Comm_size":
		if len(c.Args) < 2 {
			return 0, fmt.Errorf("MPI_Comm_size wants (comm, ptr), got %d args", len(c.Args))
		}
		l := taint.None
		if engine != nil {
			l = engine.Table.Base(e.SourceParam)
		}
		return 0, c.M.StoreMem(c.Args[1], cfg.CommSize, l)
	case "MPI_Comm_rank":
		if len(c.Args) < 2 {
			return 0, fmt.Errorf("MPI_Comm_rank wants (comm, ptr), got %d args", len(c.Args))
		}
		return 0, c.M.StoreMem(c.Args[1], cfg.Rank, taint.None)
	case "MPI_Allreduce", "MPI_Reduce":
		// Single-rank functional view: copy send buffer to recv buffer.
		if len(c.Args) >= 3 {
			count := c.Args[2]
			for i := int64(0); i < count; i++ {
				v, l, err := c.M.LoadMem(c.Args[0] + i)
				if err != nil {
					return 0, err
				}
				if err := c.M.StoreMem(c.Args[1]+i, v, l); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	default:
		// Point-to-point and remaining collectives are no-ops in the
		// single-process taint run; their performance is modeled through
		// the database shapes, not executed.
		return 0, nil
	}
}

// ExternVolume returns the loopmodel callback mapping a library callee to
// its symbolic volume contribution, used by the static/hybrid composition.
func (db *DB) ExternVolume() loopmodel.ExternVolume {
	return func(callee string) loopmodel.Expr {
		e, ok := db.Entries[callee]
		if !ok || !e.Relevant {
			return nil
		}
		if len(e.ImplicitParams) == 0 {
			return loopmodel.Const{Value: 1}
		}
		return loopmodel.Unknown{Params: append([]string(nil), e.ImplicitParams...)}
	}
}
