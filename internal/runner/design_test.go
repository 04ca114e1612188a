package runner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/apps"
)

// propSpec declares the parameters a..f, so a generated design of up to
// six axes plus defaults for the rest is always a legal configuration.
var propSpec = &apps.Spec{Name: "prop", Params: []string{"a", "b", "c", "d", "e", "f"}}

// propDesign builds a design over the first len(lengths) parameters with
// the given axis lengths; every axis is a prefix of values, so a long
// axis costs no memory of its own.
func propDesign(lengths []int, values []float64) Design {
	d := Design{Spec: propSpec, Defaults: apps.Config{"p": 2}}
	for i, prm := range propSpec.Params {
		if i < len(lengths) {
			d.Axes = append(d.Axes, Axis{Param: prm, Values: values[:lengths[i]]})
		} else {
			d.Defaults[prm] = 1
		}
	}
	return d
}

// TestCheckSizesWhatConfigsExpands: for random small designs Check's n is
// exactly the number of configurations Configs expands.
func TestCheckSizesWhatConfigsExpands(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lengths := make([]int, 1+rng.Intn(len(propSpec.Params)))
		for i := range lengths {
			lengths[i] = 1 + rng.Intn(len(values))
		}
		d := propDesign(lengths, values)
		n, err := d.Check(MaxPoints)
		return err == nil && n == len(d.Configs())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckNeverExceedsItsCap: whatever axis lengths up to 2^20 a design
// stacks up and whatever the cap, Check neither panics nor reports more
// points than the cap — the product of six such axes overflows an int
// twice over, so a multiply-then-compare check fails this.
func TestCheckNeverExceedsItsCap(t *testing.T) {
	values := make([]float64, 1<<20)
	for i := range values {
		values[i] = 1
	}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		lengths := make([]int, 1+rng.Intn(len(propSpec.Params)))
		exact, fits := 1, true // the true product while it still fits an int
		for i := range lengths {
			lengths[i] = 1 + rng.Intn(1<<uint(1+rng.Intn(20)))
			if fits = fits && exact <= MaxPoints/lengths[i]; fits {
				exact *= lengths[i]
			}
		}
		max := []int{0, 1, 1 << 10, 1 << 20, 1 << 40, MaxPoints}[rng.Intn(6)]
		n, err := propDesign(lengths, values).Check(max)
		if fits && exact <= max {
			return err == nil && n == exact
		}
		return err != nil && n == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
