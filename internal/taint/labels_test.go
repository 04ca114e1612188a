package taint

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestBaseLabelsDistinctAndStable(t *testing.T) {
	tb := NewTable()
	p := tb.Base("p")
	size := tb.Base("size")
	if p == size {
		t.Fatal("distinct parameters share a label")
	}
	if tb.Base("p") != p {
		t.Fatal("Base not idempotent")
	}
	if tb.NumBase() != 2 {
		t.Fatalf("NumBase = %d, want 2", tb.NumBase())
	}
	if p != 1 || size != 2 {
		t.Fatalf("base labels must be single bits in registration order, got %b %b", p, size)
	}
}

func TestUnionBasics(t *testing.T) {
	tb := NewTable()
	p := tb.Base("p")
	s := tb.Base("size")

	if got := Union(p, None); got != p {
		t.Fatalf("Union(p, None) = %d, want %d", got, p)
	}
	if got := Union(None, s); got != s {
		t.Fatalf("Union(None, s) = %d, want %d", got, s)
	}
	ps := Union(p, s)
	if ps == p || ps == s || ps == None {
		t.Fatal("union of distinct labels must be a fresh label")
	}
	if !ps.Has(p) || !ps.Has(s) {
		t.Fatal("union must include both bases")
	}
}

// Equivalent combinations must be the same label value — under masks the
// canonical identity the old table enforced with a dedup map is structural.
func TestUnionCanonicalizesEquivalentCombinations(t *testing.T) {
	tb := NewTable()
	p := tb.Base("p")
	s := tb.Base("size")
	n := tb.Base("niter")

	a := Union(Union(p, s), n)
	bl := Union(Union(n, p), s)
	c := Union(p, Union(s, n))
	if a != bl || bl != c {
		t.Fatalf("equivalent combinations got distinct labels: %d %d %d", a, bl, c)
	}
	if Union(a, s) != a {
		t.Fatal("Union(a, subset) must be a no-op")
	}
}

func TestExpandSortsNames(t *testing.T) {
	tb := NewTable()
	z := tb.Base("z")
	a := tb.Base("a")
	u := Union(z, a)
	got := tb.Expand(u)
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Fatalf("Expand = %v, want [a z]", got)
	}
	if s := tb.ExpandString(u); s != "a,z" {
		t.Fatalf("ExpandString = %q", s)
	}
	if tb.Expand(None) != nil {
		t.Fatal("Expand(None) should be nil")
	}
}

func TestLabelOf(t *testing.T) {
	tb := NewTable()
	p := tb.Base("p")
	if tb.LabelOf("p") != p {
		t.Fatal("LabelOf(p) mismatch")
	}
	if tb.LabelOf("unknown") != None {
		t.Fatal("LabelOf(unknown) should be None")
	}
}

func TestBaseLimit(t *testing.T) {
	tb := NewTable()
	for i := 0; i < MaxBaseLabels; i++ {
		tb.Base(string(rune('!' + i)))
	}
	if _, err := tb.TryBase("overflow"); err == nil {
		t.Fatal("TryBase beyond MaxBaseLabels must fail")
	} else {
		var tme *TooManyLabelsError
		if !errors.As(err, &tme) {
			t.Fatalf("want TooManyLabelsError, got %T: %v", err, err)
		}
		if tme.Declared != MaxBaseLabels+1 {
			t.Fatalf("Declared = %d, want %d", tme.Declared, MaxBaseLabels+1)
		}
	}
	// Registered names keep working at the limit.
	if _, err := tb.TryBase(string(rune('!'))); err != nil {
		t.Fatalf("TryBase of an existing name must not fail: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Base beyond MaxBaseLabels must panic")
		}
	}()
	tb.Base("overflow")
}

// Property: union is commutative, associative, and idempotent over a pool of
// base labels, with identical canonical values for equal sets.
func TestUnionAlgebraProperties(t *testing.T) {
	tb := NewTable()
	names := []string{"p", "size", "nx", "ny", "nz", "nt", "steps", "niter"}
	base := make([]Label, len(names))
	for i, n := range names {
		base[i] = tb.Base(n)
	}
	pick := func(i uint8) Label { return base[int(i)%len(base)] }

	comm := func(i, j uint8) bool {
		return Union(pick(i), pick(j)) == Union(pick(j), pick(i))
	}
	assoc := func(i, j, k uint8) bool {
		l := Union(Union(pick(i), pick(j)), pick(k))
		r := Union(pick(i), Union(pick(j), pick(k)))
		return l == r
	}
	idem := func(i uint8) bool {
		return Union(pick(i), pick(i)) == pick(i)
	}
	for name, prop := range map[string]interface{}{"comm": comm, "assoc": assoc, "idem": idem} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMaskSubsetProperty(t *testing.T) {
	tb := NewTable()
	a := tb.Base("a")
	b := tb.Base("b")
	c := tb.Base("c")
	u := Union(a, Union(b, c))
	for _, l := range []Label{a, b, c} {
		if u&l != l {
			t.Fatalf("mask of union missing base %d", l)
		}
	}
	if a.Has(b) {
		t.Fatal("disjoint bases must not include each other")
	}
	if None.Has(None) || u.Has(None) != true {
		// Has(l, None) is true for non-empty l (the empty set is a subset),
		// false for the empty label — the old table's exact contract.
		t.Fatal("Has(None) contract changed")
	}
}
