package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (-1 for the op's root).
// Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the two clients of a daemon workload share one.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(op, parent int, name string) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t, End: t})
	return id
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (an event
// callback's timestamps).
func (r *recorder) add(parent int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.spans[parent].Op, Name: name, Start: start, End: end})
	return id
}

// child records a call that was timed separately from its parent (the
// parent's own code cannot be instrumented from outside): it is placed
// at the parent's start and clipped to the parent's interval, so it can
// never claim more of the parent than the parent lasted.
func (r *recorder) child(parent int, name string, d time.Duration) int {
	r.mu.Lock()
	p := r.spans[parent]
	r.mu.Unlock()
	return r.add(parent, name, p.Start, min(p.Start+int64(d), p.End))
}

func (r *recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// of returns the spans of one op.
func (r *recorder) of(op int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval that its child spans cover. Children may
// overlap each other (parallel calls) and may stick out of the parent;
// only the union of their intervals inside the parent is subtracted.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][]span)
	for _, s := range spans {
		if _, ok := index[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rootName is the span every op opens first; its self time is what no
// layer span accounts for.
const rootName = "op"

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByName sums self time per span name, per op.
func selfByName(spans []span) map[int]map[string]int64 {
	self := selfTimes(spans)
	out := make(map[int]map[string]int64)
	for i, s := range spans {
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]int64)
		}
		out[s.Op][s.Name] += self[i]
	}
	return out
}
