// Package taint implements the dynamic taint machinery of Perf-Taint. A
// label IS the set of input parameters it denotes, carried as a uint64
// bitmask over base-parameter ordinals — the representation jump DFSan's
// "fast labels" made: no label table on the propagation path, no union
// tree, no memoization. Joining two labels is a single bitwise OR, executed
// inline by the interpreter (internal/interp) for every instruction of a
// tainted run. The Table that remains is a boundary concern: it registers
// parameter names at Prepare time (assigning each a bit) and expands masks
// back to sorted name lists when the census and FuncDeps are rendered.
package taint

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Label identifies a set of input parameters: bit i set means the label
// contains the base parameter with ordinal i. Label 0 is "untainted".
// Equal parameter sets are equal labels by construction — the canonical
// identity the old table-allocated representation had to maintain with a
// dedup map is now structural.
type Label uint64

// None is the empty (untainted) label.
const None Label = 0

// MaxBaseLabels bounds the number of distinct parameter names: one bit of
// the mask per parameter, which covers all realistic modeling setups (the
// paper's apps use at most nine parameters). Specs declaring more are
// rejected at core.Prepare time with a TooManyLabelsError.
const MaxBaseLabels = 64

// TooManyLabelsError reports an attempt to register more distinct taint
// parameters than the 64-bit mask representation can carry.
type TooManyLabelsError struct {
	// Declared is the number of distinct base labels requested.
	Declared int
}

// Error renders the violation with the declared count and the budget.
func (e *TooManyLabelsError) Error() string {
	return fmt.Sprintf("taint: %d distinct taint parameters exceed the %d-parameter mask budget (taint.MaxBaseLabels); drop parameters from the spec or split the analysis into separate parameter sets", e.Declared, MaxBaseLabels)
}

// Union joins two labels: the parameter set of the result is the union of
// the operand sets. This is the whole union algebra — commutative,
// associative, idempotent, with None as identity — and compiles to one OR
// instruction; the interpreter hot loops apply the operator directly.
func Union(a, b Label) Label { return a | b }

// Has reports whether label l includes base label base. It mirrors the old
// table semantics exactly: the empty label includes nothing.
func (l Label) Has(base Label) bool {
	if l == None {
		return false
	}
	return l&base == base
}

// Table maps parameter names to base labels and back. It is pure boundary
// machinery — registration when a run's sources are configured, expansion
// when reports are rendered — and never touched by label propagation.
type Table struct {
	names  []string         // ordinal -> base name
	byName map[string]Label // base name -> single-bit label
}

// NewTable returns an empty name registry.
func NewTable() *Table {
	return &Table{byName: make(map[string]Label)}
}

// Base returns the single-bit label for parameter name, allocating the next
// ordinal on first use. Specs are validated against MaxBaseLabels at
// core.Prepare time; exhausting the ordinal space here is a programming
// error, hence the panic.
func (t *Table) Base(name string) Label {
	if l, ok := t.byName[name]; ok {
		return l
	}
	ord := len(t.names)
	if ord >= MaxBaseLabels {
		panic((&TooManyLabelsError{Declared: ord + 1}).Error())
	}
	l := Label(1) << uint(ord)
	t.names = append(t.names, name)
	t.byName[name] = l
	return l
}

// TryBase is Base with the overflow reported as a TooManyLabelsError
// instead of a panic, for validation boundaries.
func (t *Table) TryBase(name string) (Label, error) {
	if _, ok := t.byName[name]; !ok && len(t.names) >= MaxBaseLabels {
		return None, &TooManyLabelsError{Declared: len(t.names) + 1}
	}
	return t.Base(name), nil
}

// Names returns the registered parameter names in ordinal order: Names()[i]
// is the parameter bit i denotes. The slice must not be modified.
func (t *Table) Names() []string { return t.names }

// NumBase returns the number of distinct base labels.
func (t *Table) NumBase() int { return len(t.byName) }

// Expand returns the sorted parameter names contained in l. Bits beyond the
// registered ordinals are ignored, so an over-approximated mask still
// renders only known parameters.
func (t *Table) Expand(l Label) []string {
	if l == None {
		return nil
	}
	mask := uint64(l)
	var out []string
	for mask != 0 {
		ord := bits.TrailingZeros64(mask)
		mask &= mask - 1
		if ord < len(t.names) {
			out = append(out, t.names[ord])
		}
	}
	sort.Strings(out)
	return out
}

// ExpandString renders l as a sorted comma-joined parameter list.
func (t *Table) ExpandString(l Label) string {
	return strings.Join(t.Expand(l), ",")
}

// LabelOf returns the label currently assigned to parameter name, or None.
func (t *Table) LabelOf(name string) Label {
	return t.byName[name]
}
