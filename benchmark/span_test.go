package main

import (
	"reflect"
	"testing"
	"time"
)

// spanCases is one table of synthetic span trees (times in ns) with the
// self time each span must get. It drives both the arithmetic test and
// the recorder benchmark, so what is timed is what is verified.
var spanCases = []struct {
	name  string
	spans []span // ID = index
	self  []int64
}{
	{"root alone",
		[]span{{0, -1, 0, "op", 0, 100}},
		[]int64{100}},
	{"one child",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 10, 40}},
		[]int64{70, 30}},
	{"sequential children",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 0, 30}, {2, 0, 0, "modelreg.consume", 30, 90}},
		[]int64{10, 30, 60}},
	{"overlapping children count once",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 10, 60}, {2, 0, 0, "core.analyze", 40, 80}},
		[]int64{30, 50, 40}},
	{"child inside its sibling",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 10, 90}, {2, 0, 0, "interp.run", 20, 30}},
		[]int64{20, 80, 10}},
	{"child sticking out is clipped",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "modelreg.finish", 80, 150}},
		[]int64{80, 70}},
	{"grandchild only reduces its parent",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 0, 80}, {2, 1, 0, "interp.run", 10, 50}},
		[]int64{20, 40, 40}},
	{"children given out of order",
		[]span{{0, -1, 0, "op", 0, 100}, {1, 0, 0, "b.x", 60, 90}, {2, 0, 0, "a.x", 10, 30}},
		[]int64{50, 30, 20}},
	{"two ops do not mix",
		[]span{{0, -1, 0, "op", 0, 100}, {1, -1, 1, "op", 50, 150}, {2, 1, 1, "core.analyze", 60, 100}},
		[]int64{100, 60, 40}},
	{"unknown parent is a root",
		[]span{{0, 7, 0, "op", 0, 100}},
		[]int64{100}},
}

func TestSelfTimes(t *testing.T) {
	for _, c := range spanCases {
		t.Run(c.name, func(t *testing.T) {
			got := selfTimes(c.spans)
			if !reflect.DeepEqual(got, c.self) {
				t.Fatalf("self times %v, want %v", got, c.self)
			}
		})
	}
}

func TestSelfByName(t *testing.T) {
	spans := []span{
		{0, -1, 0, "op", 0, 100}, {1, 0, 0, "core.analyze", 0, 40}, {2, 0, 0, "core.analyze", 50, 70},
		{3, -1, 1, "op", 0, 10},
	}
	got := selfByName(spans)
	want := map[int]map[string]int64{0: {"op": 40, "core.analyze": 60}, 1: {"op": 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self by name %v, want %v", got, want)
	}
	if l := layerOf("core.analyze"); l != "core" {
		t.Fatalf("layer %q, want core", l)
	}
}

func TestRecorderChildIsClippedToItsParent(t *testing.T) {
	r := newRecorder()
	root := r.begin(3, -1, rootName)
	time.Sleep(time.Millisecond)
	r.end(root)
	inside := r.child(root, "interp.run", r.duration(root)/2)
	outside := r.child(root, "interp.run", time.Hour)
	spans := r.snapshot()
	if spans[inside].Op != 3 || spans[inside].Parent != root {
		t.Fatalf("child filed as %+v", spans[inside])
	}
	if got := r.duration(inside); got != r.duration(root)/2 {
		t.Fatalf("child lasts %v, want half of %v", got, r.duration(root))
	}
	if spans[outside].End != spans[root].End {
		t.Fatalf("child ends at %d, parent at %d", spans[outside].End, spans[root].End)
	}
}

// BenchmarkRecorder records each case's tree through the recorder and
// computes its self times: the per-op cost the traced pass adds.
func BenchmarkRecorder(b *testing.B) {
	for _, c := range spanCases {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				r := newRecorder()
				for _, s := range c.spans {
					if s.Parent < 0 || s.Parent >= s.ID {
						r.end(r.begin(s.Op, -1, s.Name))
					} else {
						r.add(s.Parent, s.Name, s.Start, s.End)
					}
				}
				if got := selfTimes(r.snapshot()); len(got) != len(c.self) {
					b.Fatalf("%d self times, want %d", len(got), len(c.self))
				}
			}
		})
	}
}
