package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// aaRow is one end-to-end metric of one workload, measured twice on the
// same build.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Delta    float64 `json:"delta"` // (second - first) / first
	Bound    float64 `json:"bound"`
	Exceeds  bool    `json:"exceeds"`
}

// setupFloor is the absolute change below which a set-up time never
// counts as moved: a quarter of a 50 ms set-up is scheduler noise.
const setupFloor = 0.25

// runAA runs the whole suite twice on the same build, the second time
// in reverse workload order, and holds the two against each other: the
// benchmark's own noise must stay inside the bounds it asks later
// changes to respect.
func runAA(ctx context.Context, o options, root, outDir string, stdout, stderr io.Writer) int {
	o.trace = false
	order := slices.Clone(workloads)
	var passes [2]map[string]map[string]metricValue
	for pass := range passes {
		passes[pass] = make(map[string]map[string]metricValue)
		for _, w := range order {
			res, err := runWorkload(ctx, w, o, root, outDir, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
				return 1
			}
			passes[pass][w.name] = res.Metrics
		}
		slices.Reverse(order)
	}

	var rows []aaRow
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := passes[0][w.name][d.Name].Value, passes[1][w.name][d.Name].Value
			r := aaRow{Workload: w.name, Metric: d.Name, First: a, Second: b, Delta: (b - a) / a, Bound: d.Bound}
			r.Exceeds = math.Abs(r.Delta) > d.Bound && !(d.Name == "setup_s" && math.Abs(b-a) <= setupFloor)
			if r.Exceeds {
				code = 1
			}
			rows = append(rows, r)
			fmt.Fprintf(stdout, "aa %-18s %-16s %12.6g %12.6g %+7.2f%% (bound %.0f%%)%s\n",
				r.Workload, r.Metric, a, b, 100*r.Delta, 100*d.Bound, map[bool]string{true: "  EXCEEDS"}[r.Exceeds])
		}
	}
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "aa.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}
