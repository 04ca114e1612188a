package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// stage names of the pipeline latencies the daemon histograms: the
// per-spec Prepare (module build + static pass + predecode), the
// per-configuration taint run, and the sweep-and-fit model extraction.
const (
	// StagePrepare is the per-spec preparation latency.
	StagePrepare = "prepare"
	// StageRun is the per-configuration analysis job latency.
	StageRun = "run"
	// StageFit is the end-to-end model extraction (sweep + fit) latency.
	StageFit = "fit"
)

// defaultBuckets are the histogram upper bounds in seconds: exponential
// from 500µs to 60s, wide enough for a sub-millisecond cache rebuild and
// a multi-second model extraction on the same scale.
var defaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative style: counts[i] tallies observations <= bounds[i], with a
// final overflow bucket. Safe for concurrent use; Observe is a mutex and
// two adds, cheap enough for every request on the hot path.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram returns a histogram over the daemon's default latency
// buckets (500µs .. 60s, exponential).
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: defaultBuckets,
		counts: make([]uint64, len(defaultBuckets)+1),
	}
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += seconds
	h.count++
	h.mu.Unlock()
}

// ObserveSince records the latency elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// HistogramSnapshot is a consistent point-in-time copy of a histogram:
// cumulative bucket counts aligned with Bounds, plus the +Inf total.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds.
	Bounds []float64
	// Cumulative[i] counts observations <= Bounds[i]; Count is the +Inf
	// total and Sum the sum of all observed values.
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        h.sum,
		Count:      h.count,
	}
	var run uint64
	for i := range h.bounds {
		run += h.counts[i]
		snap.Cumulative[i] = run
	}
	return snap
}

// Metrics aggregates the daemon's observability state that is not
// already a cache or scheduler counter: per-stage latency histograms and
// the admission-control rejection counter. One instance lives on the
// Server and is rendered by GET /metrics.
type Metrics struct {
	stages map[string]*Histogram

	mu          sync.Mutex
	rateLimited uint64
}

// newMetrics builds the fixed stage registry.
func newMetrics() *Metrics {
	return &Metrics{stages: map[string]*Histogram{
		StagePrepare: NewHistogram(),
		StageRun:     NewHistogram(),
		StageFit:     NewHistogram(),
	}}
}

// Stage returns the histogram for one of the Stage* names.
func (m *Metrics) Stage(name string) *Histogram { return m.stages[name] }

// rateLimitedInc counts one 429 rejection.
func (m *Metrics) rateLimitedInc() {
	m.mu.Lock()
	m.rateLimited++
	m.mu.Unlock()
}

// RateLimited returns the number of admission-control rejections served.
func (m *Metrics) RateLimited() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rateLimited
}

// --- Prometheus text exposition ---

// promFloat formats a sample value the way Prometheus expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promWriter accumulates Prometheus text-format families.
type promWriter struct{ w io.Writer }

func (p promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, promFloat(v))
	} else {
		fmt.Fprintf(p.w, "%s %s\n", name, promFloat(v))
	}
}

// histogram emits one labeled histogram series (bucket/sum/count).
func (p promWriter) histogram(name, labels string, snap HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range snap.Bounds {
		fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, promFloat(bound), snap.Cumulative[i])
	}
	fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	p.sample(name+"_sum", labels, snap.Sum)
	p.sample(name+"_count", labels, float64(snap.Count))
}

// writeMetrics renders the whole daemon state in Prometheus text format:
// queue and worker gauges, job counters, per-cache hit/miss/eviction and
// disk-tier counters, admission-control counters, and the per-stage
// latency histograms.
func (s *Server) writeMetrics(w io.Writer) {
	p := promWriter{w: w}

	jobs := s.sched.jobStats()
	p.family("perftaintd_queue_depth", "Jobs queued but not yet started.", "gauge")
	p.sample("perftaintd_queue_depth", "", float64(jobs.Queued))
	p.family("perftaintd_jobs_running", "Jobs currently executing on the worker pool.", "gauge")
	p.sample("perftaintd_jobs_running", "", float64(jobs.Running))
	p.family("perftaintd_workers", "Size of the analysis worker pool.", "gauge")
	p.sample("perftaintd_workers", "", float64(s.opts.Workers))
	p.family("perftaintd_jobs_total", "Jobs by terminal outcome since start.", "counter")
	p.sample("perftaintd_jobs_total", `outcome="submitted"`, float64(jobs.Submitted))
	p.sample("perftaintd_jobs_total", `outcome="completed"`, float64(jobs.Completed))
	p.sample("perftaintd_jobs_total", `outcome="failed"`, float64(jobs.Failed))
	p.sample("perftaintd_jobs_total", `outcome="canceled"`, float64(jobs.Canceled))

	pc, mc := s.cache.Stats(), s.models.Stats()
	perCache := func(family, help, kind string, prepared, models float64) {
		p.family(family, help, kind)
		p.sample(family, `cache="prepared"`, prepared)
		p.sample(family, `cache="models"`, models)
	}
	perCache("perftaintd_cache_hits_total", "In-memory cache hits (including singleflight joins).", "counter",
		float64(pc.Hits), float64(mc.Hits))
	perCache("perftaintd_cache_misses_total", "Cold builds: neither memory nor disk had the entry.", "counter",
		float64(pc.Misses), float64(mc.Misses))
	perCache("perftaintd_cache_disk_hits_total", "Entries served from the persistent tier with no build.", "counter",
		float64(pc.DiskHits), float64(mc.DiskHits))
	perCache("perftaintd_cache_evictions_total", "LRU evictions of completed entries.", "counter",
		float64(pc.Evictions), float64(mc.Evictions))
	perCache("perftaintd_cache_entries", "Resident completed entries.", "gauge",
		float64(pc.Entries), float64(mc.Entries))
	// Only the model registry has a persistent tier.
	md := s.models.DiskStats()
	p.family("perftaintd_cache_disk_puts_total", "Entries persisted to the disk tier.", "counter")
	p.sample("perftaintd_cache_disk_puts_total", `cache="models"`, float64(md.Puts))
	p.family("perftaintd_cache_disk_dropped_total", "Corrupt/short/wrong-version disk entries deleted on read.", "counter")
	p.sample("perftaintd_cache_disk_dropped_total", `cache="models"`, float64(md.Dropped))

	p.family("perftaintd_ratelimit_rejected_total", "Requests rejected with 429 by per-client admission control.", "counter")
	p.sample("perftaintd_ratelimit_rejected_total", "", float64(s.metrics.RateLimited()))
	p.family("perftaintd_ratelimit_clients", "Client token buckets currently tracked.", "gauge")
	p.sample("perftaintd_ratelimit_clients", "", float64(s.limiter.clients()))

	if s.journal != nil {
		jst := s.journal.Stats()
		p.family("perftaintd_journal_open_jobs", "Journaled jobs accepted but not yet terminal.", "gauge")
		p.sample("perftaintd_journal_open_jobs", "", float64(jst.OpenJobs))
		p.family("perftaintd_journal_bytes", "Total size of open journal files on disk.", "gauge")
		p.sample("perftaintd_journal_bytes", "", float64(jst.Bytes))
		p.family("perftaintd_journal_appends_total", "Records durably appended (fsynced) since start.", "counter")
		p.sample("perftaintd_journal_appends_total", "", float64(jst.Appends))
		p.family("perftaintd_journal_replays_total", "Jobs resumed from a non-empty journal since start.", "counter")
		p.sample("perftaintd_journal_replays_total", "", float64(jst.Replays))
		p.family("perftaintd_journal_recovered_tails_total", "Torn or corrupt journal frames discarded during recovery.", "counter")
		p.sample("perftaintd_journal_recovered_tails_total", "", float64(jst.RecoveredTails))
		p.family("perftaintd_journal_compactions_total", "Terminal journals removed after their job finished.", "counter")
		p.sample("perftaintd_journal_compactions_total", "", float64(jst.Compactions))
	}

	p.family("perftaintd_uptime_seconds", "Seconds since the daemon started.", "gauge")
	p.sample("perftaintd_uptime_seconds", "", time.Since(s.start).Seconds())

	if s.coord != nil {
		cs := s.coord.stats()
		p.family("perftaintd_cluster_workers", "Registered workers by liveness.", "gauge")
		p.sample("perftaintd_cluster_workers", `state="live"`, float64(cs.LiveWorkers))
		p.sample("perftaintd_cluster_workers", `state="dead"`, float64(len(cs.Workers)-cs.LiveWorkers))
		p.family("perftaintd_cluster_shards_total", "Completed shards by execution site.", "counter")
		for _, ws := range cs.Workers {
			p.sample("perftaintd_cluster_shards_total", `worker="`+ws.ID+`"`, float64(ws.Shards))
		}
		p.sample("perftaintd_cluster_shards_total", `worker="coordinator-local"`, float64(cs.ShardsLocal))
		p.family("perftaintd_cluster_shard_retries_total", "Shard dispatches that failed and were retried.", "counter")
		p.sample("perftaintd_cluster_shard_retries_total", "", float64(cs.ShardRetries))
		p.family("perftaintd_cluster_heartbeat_misses_total", "Live-to-dead worker transitions from heartbeat timeouts.", "counter")
		p.sample("perftaintd_cluster_heartbeat_misses_total", "", float64(cs.HeartbeatMisses))
		p.family("perftaintd_cluster_shard_duration_seconds", "Round-trip latency of successful remote shard dispatches.", "histogram")
		p.histogram("perftaintd_cluster_shard_duration_seconds", "", s.coord.shardHist.Snapshot())
	}

	p.family("perftaintd_stage_duration_seconds",
		"Latency by pipeline stage: prepare (per spec), run (per analysis job), fit (per model extraction).",
		"histogram")
	names := make([]string, 0, len(s.metrics.stages))
	for name := range s.metrics.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.histogram("perftaintd_stage_duration_seconds", `stage="`+name+`"`, s.metrics.stages[name].Snapshot())
	}
}
