package service

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// tinySpec builds a minimal valid spec whose content is parameterized by
// units, so distinct units yield distinct content addresses.
func tinySpec(units float64) *apps.Spec {
	return &apps.Spec{
		Name:   "tiny",
		Params: []string{"n"},
		Funcs: []*apps.FuncSpec{
			{Name: "main", Kind: apps.KindMain, Body: []apps.Stmt{
				apps.Loop{Kind: apps.ParamBound, Bound: apps.QP(1, "n", 1), Body: []apps.Stmt{
					apps.Work{Units: units},
				}},
			}},
		},
	}
}

func TestPreparedCacheHashStability(t *testing.T) {
	// Count builds through the prepare seam while still producing real
	// Prepared values.
	builds := 0
	c := NewPreparedCache(4, NewHistogram())
	c.prepare = func(spec *apps.Spec) (*core.Prepared, error) {
		builds++
		return core.Prepare(spec)
	}
	// Two separately constructed but equivalent specs must share one
	// entry: the cache is content-addressed, not identity-addressed.
	if _, _, err := c.Get(context.Background(), tinySpec(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(context.Background(), tinySpec(5)); err != nil {
		t.Fatal(err)
	}
	if n := builds; n != 1 {
		t.Fatalf("equivalent specs built %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A semantically different spec is a different address.
	if _, _, err := c.Get(context.Background(), tinySpec(6)); err != nil {
		t.Fatal(err)
	}
	if n := builds; n != 2 {
		t.Fatalf("distinct spec reused an entry (builds = %d)", n)
	}
}
