package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/apps"
)

// DigestVersion salts every spec digest. Bump it whenever the pipeline's
// semantics change in a way that invalidates cached Prepared artifacts
// (new static pass, different predecoding, ...): old and new processes
// then address disjoint cache entries instead of sharing stale ones.
const DigestVersion = "perftaint-prepared-v2"

// SpecDigest returns the content address of a spec: a hex SHA-256 over a
// canonical encoding of everything the analysis pipeline can observe — the
// function bodies from which the module IR derives deterministically, the
// taint spec (marked parameters in declaration order), the MPI surface,
// and the census-facing metadata (kinds, work model). Two specs that are
// structurally identical hash identically regardless of how their value
// maps were built (Quantity powers are serialized in sorted key order),
// while any semantic difference — a bound, a callee, a parameter — yields
// a different address.
//
// The service layer keys its shared PreparedCache on this digest, so the
// digest must pin down core.Prepare's output exactly: Prepare consumes
// nothing outside the spec, and BuildModule is deterministic, so equal
// digests imply interchangeable Prepared values.
func SpecDigest(spec *apps.Spec) string {
	h := sha256.New()
	w := specWriter{h: h}
	w.str(DigestVersion)
	w.str(spec.Name)
	w.strs("params", spec.Params)
	w.strs("mpi", spec.MPIUsed)
	w.num("funcs", len(spec.Funcs))
	for _, f := range spec.Funcs {
		w.str(f.Name)
		w.num("kind", int(f.Kind))
		w.f64(f.WorkNanos)
		w.f64(f.MemIntensity)
		w.f64(f.HWFactorPExp)
		w.f64(f.ImbalanceSkew)
		w.bool(f.InlineEstimate)
		w.body(f.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// specWriter streams a canonical, self-delimiting encoding of a spec into
// a hash (or any writer). Every field is length- or tag-prefixed so
// distinct structures can never serialize to the same byte stream.
type specWriter struct{ h io.Writer }

func (w specWriter) str(s string) {
	fmt.Fprintf(w.h, "s%d:%s;", len(s), s)
}

func (w specWriter) num(tag string, n int) {
	fmt.Fprintf(w.h, "%s=%d;", tag, n)
}

func (w specWriter) f64(v float64) {
	fmt.Fprintf(w.h, "f%s;", strconv.FormatFloat(v, 'g', -1, 64))
}

func (w specWriter) bool(b bool) {
	fmt.Fprintf(w.h, "b%t;", b)
}

func (w specWriter) strs(tag string, ss []string) {
	w.num(tag, len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

// quantity encodes a monomial with its power map in sorted key order, so
// equivalent quantities built in different insertion orders coincide.
func (w specWriter) quantity(q apps.Quantity) {
	w.f64(q.Coeff)
	keys := make([]string, 0, len(q.Pow))
	for k, pow := range q.Pow {
		if pow != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	w.num("pow", len(keys))
	for _, k := range keys {
		w.str(k)
		w.num("e", q.Pow[k])
	}
}

func (w specWriter) body(body []apps.Stmt) {
	w.num("body", len(body))
	for _, st := range body {
		switch v := st.(type) {
		case apps.Loop:
			w.str("loop")
			w.num("bound", int(v.Kind))
			w.quantity(v.Bound)
			w.body(v.Body)
		case apps.Call:
			w.str("call")
			w.str(v.Callee)
			if v.CountArg != nil {
				w.bool(true)
				w.quantity(*v.CountArg)
			} else {
				w.bool(false)
			}
		case apps.Work:
			w.str("work")
			w.f64(v.Units)
		case apps.Branch:
			w.str("branch")
			w.str(v.Param)
			w.f64(v.Less)
			w.body(v.Then)
			w.body(v.Else)
		default:
			// Unknown statement kinds must not silently collide; encode
			// their Go syntax, which at least separates distinct values.
			w.str(fmt.Sprintf("unknown:%T:%v", st, st))
		}
	}
}
