package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one registry entry. The registry below is the single
// source of names and units: run results are validated against it, and
// smoke_test.go checks BENCHMARK.json against it (drift guard).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated regression share
}

// runSeconds is the default timed window per workload, and the
// run_seconds the driver passes.
const runSeconds = 12

// endToEnd are the metrics a user of the system sees; the same five on
// every workload. Failures are not a metric here: they travel in the
// result's attempted/failed counts, because a metric whose baseline is
// zero cannot carry a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer are the traced-pass metrics, grouped by the repository's own
// package names. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.prepare_ms", "ms", "lower", 0},
	{"core.digest_us", "us", "lower", 0},
	{"core.analyze_ms", "ms", "lower", 0},
	{"core.aggregate_share", "ratio", "lower", 0},

	{"interp.predecode_ms", "ms", "lower", 0},
	{"interp.compile_ms", "ms", "lower", 0},
	{"interp.instr", "count/op", "lower", 0},
	{"interp.ns_per_instr_tainted", "ns", "lower", 0},
	{"interp.ns_per_instr_untainted", "ns", "lower", 0},
	{"interp.label_share", "ratio", "lower", 0},
	{"interp.run_share", "ratio", "lower", 0},

	{"runner.points", "count/op", "lower", 0},
	{"runner.fanout_us_per_point", "us", "lower", 0},
	{"runner.parallel_eff", "ratio", "higher", 0},

	{"cluster.measure_us_per_point", "us", "lower", 0},

	{"modelreg.newpipeline_ms", "ms", "lower", 0},
	{"modelreg.consume_us_per_point", "us", "lower", 0},
	{"modelreg.refit_ms_per_op", "ms", "lower", 0},
	{"modelreg.finish_ms", "ms", "lower", 0},
	{"modelreg.render_md_ms", "ms", "lower", 0},
	{"modelreg.render_html_ms", "ms", "lower", 0},
	{"modelreg.set_bytes", "B", "lower", 0},
	{"modelreg.registry_hit_us", "us", "lower", 0},
	{"modelreg.registry_disk_hit_ms", "ms", "lower", 0},

	{"extrap.fits_per_op", "count/op", "lower", 0},
	{"extrap.us_per_fit_hybrid", "us", "lower", 0},
	{"extrap.us_per_fit_blackbox", "us", "lower", 0},

	{"journal.append_us", "us", "lower", 0},
	{"journal.append_bytes", "B", "lower", 0},
	{"journal.appends_per_op", "count/op", "lower", 0},
	{"journal.fsync_share", "ratio", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},

	{"diskcache.put_us", "us", "lower", 0},
	{"diskcache.get_us", "us", "lower", 0},

	{"service.analyze_overhead_ms", "ms", "lower", 0},
	{"service.models_hit_ms", "ms", "lower", 0},
	{"service.first_line_ms", "ms", "lower", 0},
	{"service.sweep_overhead_us_per_point", "us", "lower", 0},
	{"service.journal_overhead_us_per_point", "us", "lower", 0},
	{"service.shard_overhead_us_per_point", "us", "lower", 0},
	{"service.stage_prepare_s", "s/op", "lower", 0},
	{"service.stage_run_s", "s/op", "lower", 0},
	{"service.stage_fit_s", "s/op", "lower", 0},
	{"service.prepared_hits", "count/op", "higher", 0},
	{"service.prepared_misses", "count/op", "lower", 0},
	{"service.prepared_disk_hits", "count/op", "higher", 0},
	{"service.models_hits", "count/op", "higher", 0},
	{"service.models_disk_hits", "count/op", "higher", 0},
	{"service.models_misses", "count/op", "lower", 0},
	{"service.shards_dispatched", "count/op", "lower", 0},
	{"service.shards_local", "count/op", "lower", 0},
	{"service.shard_retries", "count/op", "lower", 0},
	{"service.shard_s_sum", "s/op", "lower", 0},

	{"api.sweepline_bytes", "B", "lower", 0},
	{"api.encode_us_per_line", "us", "lower", 0},

	{"client.ops", "count", "higher", 0},
	{"client.samples", "count", "higher", 0},
	{"client.op_ms_p90", "ms", "lower", 0},
	{"client.op_ms_min", "ms", "lower", 0},
	{"client.op_ms_max", "ms", "lower", 0},
	{"client.fail_share", "ratio", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_cpu_share", "ratio", "lower", 0},
	{"process.speed", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.reconcile_gap", "ratio", "lower", 0},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// seal turns measured values into the result's metric map, refusing a
// run that did not produce exactly the registered names with finite
// values — a metric silently dropped or misspelled must fail the run,
// not vanish from the ledger.
func seal(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not registered", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile (nearest-rank on the sorted copy) of
// xs, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median averages the two middle values of an even-sized sample, so one
// sample crossing the middle moves it by half a gap, not a whole one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
