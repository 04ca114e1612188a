package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/appgen"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// reconcileLimit is how far the layers' self times may fall short of (or
// exceed) the op's wall-clock before the traced pass fails.
const reconcileLimit = 0.10

// reconcileOps is how many decomposed ops the reconciliation needs
// behind it before it may fail the pass: on this shared box one op in
// two or three meets a burst, and the median of three ratios survives
// one.
const reconcileOps = 3

// tracedPass produces the per-layer numbers. It never feeds the gated
// metrics: those are always taken with tracing off. The pass has four
// parts: an untraced window (the client.* numbers and the figure tracing
// overhead is taken against); for a daemon, the same window again with a
// span around every op and the daemon's counters read before and after;
// the decomposition of the workload's model request into the public
// calls of each layer; and fixed-size probes of the layers a request
// only touches in passing (journal, disk cache, wire encoding).
func tracedPass(ctx context.Context, w workload, inst instance, o options, outDir string, log io.Writer) (*result, error) {
	rec := newRecorder()
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	begin := time.Now()

	n := o.count(w, 0.25)
	plain := drive(ctx, inst, w.clients, o.first, n, o.seconds/4, nil)
	for name, v := range clientValues(plain) {
		vals[name] = v
	}
	attempted, failed, errs := plain.attempted(), plain.failed, plain.errs
	untraced, traced := median(plain.lat), 0.0

	sv := inst.service()
	if sv != nil {
		before, err := scrape(ctx, sv.primary)
		if err != nil {
			return nil, err
		}
		win := drive(ctx, inst, w.clients, o.first+n, n, o.seconds/4, func(i int, f func() error) error {
			id := rec.begin(i, -1, rootName)
			defer rec.end(id)
			return f()
		})
		after, err := scrape(ctx, sv.primary)
		if err != nil {
			return nil, err
		}
		serviceCounters(vals, before, after, float64(max(len(win.lat), 1)))
		attempted, failed, errs = attempted+win.attempted(), failed+win.failed, append(errs, win.errs...)
		traced = median(win.lat)
	}

	// Decompose model requests, at least reconcileOps of them, until
	// three quarters of the run's budget are spent (once, when the op
	// count is fixed).
	var all []*layers
	var last extraction
	for k := 0; k == 0 || o.ops <= 0 && (k < reconcileOps || time.Since(begin).Seconds() < 0.75*o.seconds); k++ {
		last = inst.extraction(k)
		L, err := decompose(ctx, rec, 1<<30+k, last)
		if err != nil {
			return nil, fmt.Errorf("decompose: %w", err)
		}
		all = append(all, L)
	}
	serial, tracedWalls := layerValues(vals, all)
	if sv == nil {
		untraced, traced = median(serial), median(tracedWalls)
	}
	if untraced > 0 {
		vals["trace.overhead_share"] = traced/untraced - 1
	}

	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reps := 5
	if o.ops > 0 {
		reps = 1
	}
	if err := probeLayers(ctx, vals, dir, last, all[len(all)-1].set); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if sv != nil {
		if err := probeService(ctx, vals, sv, reps); err != nil {
			return nil, fmt.Errorf("service probes: %w", err)
		}
	}

	if err := rec.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	report(log, w.name, "per-layer", perLayer, vals)
	for _, err := range errs {
		fmt.Fprintf(log, "%s: FAILED %v\n", w.name, err)
	}
	// The in-process workloads are the ones whose op the decomposition
	// covers completely, so theirs must reconcile.
	if gap := vals["trace.reconcile_gap"]; sv == nil && len(all) >= reconcileOps && (gap > reconcileLimit || gap < -reconcileLimit) {
		return nil, fmt.Errorf("layer self times miss the op's wall-clock by %.1f%% (limit %.0f%%)", 100*gap, 100*reconcileLimit)
	}
	sealed, err := seal(perLayer, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: sealed}, nil
}

// layerValues folds the decomposed ops into the per-layer metrics:
// shares as ratios of sums over all ops (ops of corpus-small differ in
// size, and a share is of the workload's time, not of the median app's),
// per-op quantities as means, per-call times as medians. Only the
// reconciliation, which can fail the pass, is a median over ops, so that
// one op that met a burst on the box cannot fail it. It returns the
// per-op serial and traced wall-clocks in ms.
func layerValues(vals map[string]float64, all []*layers) (serial, traced []float64) {
	var s layers
	var analyzeEach, covered []float64
	for _, L := range all {
		s.points += L.points
		s.parallelWall += L.parallelWall
		s.serialWall += L.serialWall
		s.sweepOne += L.sweepOne
		s.newPipeline += L.newPipeline
		s.analyze += L.analyze
		s.consume += L.consume
		s.refit += L.refit
		s.finish += L.finish
		s.tainted += L.tainted
		s.taintedPoints += L.taintedPoints
		s.untainted += L.untainted
		s.instr += L.instr
		s.instrClean += L.instrClean
		s.measure += L.measure
		s.fitHybrid += L.fitHybrid
		s.fitBlackBox += L.fitBlackBox
		s.finishFits += L.finishFits
		s.refitFits += L.refitFits
		for _, d := range L.analyzeEach {
			analyzeEach = append(analyzeEach, ms(d))
		}
		covered = append(covered, float64(L.layerSelf)/float64(L.serialWall))
		serial = append(serial, ms(L.serialWall))
		traced = append(traced, ms(L.tracedWall))
	}
	ops, points, fits := float64(len(all)), float64(s.points), float64(s.finishFits)/2
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	nsTainted := float64(s.tainted) / float64(s.instr)
	nsClean := float64(s.untainted) / float64(s.instrClean)

	vals["core.analyze_ms"] = median(analyzeEach)
	vals["core.aggregate_share"] = 1 - float64(s.taintedPoints)/float64(s.analyze)
	vals["interp.instr"] = float64(s.instr) / ops
	vals["interp.ns_per_instr_tainted"] = nsTainted
	vals["interp.ns_per_instr_untainted"] = nsClean
	vals["interp.label_share"] = 1 - nsClean/nsTainted
	vals["interp.run_share"] = float64(s.tainted) / float64(s.serialWall)
	vals["runner.points"] = points / ops
	vals["runner.fanout_us_per_point"] = us(s.sweepOne-s.analyze) / points
	vals["runner.parallel_eff"] = float64(s.serialWall) / (2 * float64(s.parallelWall))
	vals["cluster.measure_us_per_point"] = us(s.measure) / points
	vals["modelreg.newpipeline_ms"] = ms(s.newPipeline) / ops
	vals["modelreg.consume_us_per_point"] = us(s.consume) / points
	vals["modelreg.refit_ms_per_op"] = ms(s.refit) / ops
	vals["modelreg.finish_ms"] = ms(s.finish) / ops
	vals["extrap.fits_per_op"] = float64(s.finishFits+s.refitFits) / ops
	vals["extrap.us_per_fit_hybrid"] = us(s.fitHybrid) / fits
	vals["extrap.us_per_fit_blackbox"] = us(s.fitBlackBox) / fits
	vals["trace.reconcile_gap"] = 1 - median(covered)
	return serial, traced
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timed returns the median wall-clock of n calls of f, in ms.
func timed(n int, f func() error) (float64, error) {
	each := make([]float64, n)
	for i := range each {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		each[i] = ms(time.Since(t))
	}
	return median(each), nil
}

// probeLayers times, at fixed sizes, the layers a request crosses only
// briefly, with this workload's own payloads: the spec x names, the
// model set its extraction produced, and a sweep line of its taint run.
func probeLayers(ctx context.Context, vals map[string]float64, dir string, x extraction, set *modelreg.ModelSet) error {
	var prep *core.Prepared
	var err error
	if vals["core.prepare_ms"], err = timed(3, func() (err error) { prep, err = core.Prepare(x.spec); return }); err != nil {
		return err
	}
	d, _ := timed(9, func() error { core.SpecDigest(x.spec); return nil })
	vals["core.digest_us"] = 1e3 * d
	var prog *interp.Program
	vals["interp.predecode_ms"], _ = timed(3, func() error { prog = interp.Predecode(prep.Module); return nil })
	vals["interp.compile_ms"], _ = timed(3, func() error { interp.Compile(prog); return nil })

	vals["modelreg.render_md_ms"], _ = timed(3, func() error { modelreg.RenderMarkdown(set); return nil })
	vals["modelreg.render_html_ms"], _ = timed(3, func() error { modelreg.RenderHTML(set); return nil })
	payload, err := json.Marshal(set)
	if err != nil {
		return err
	}
	vals["modelreg.set_bytes"] = float64(len(payload))

	// Registry: a memory hit, then a hit on the disk tier from a registry
	// that has never seen the key (a restarted daemon).
	build := func() (*modelreg.ModelSet, error) { return set, nil }
	disk, err := modelreg.OpenDiskLayer(filepath.Join(dir, "models"))
	if err != nil {
		return err
	}
	reg := modelreg.NewRegistry(4)
	reg.SetDisk(disk)
	if _, _, err := reg.Get(set.Key, build); err != nil {
		return err
	}
	d, _ = timed(99, func() error { _, _, err := reg.Get(set.Key, build); return err })
	vals["modelreg.registry_hit_us"] = 1e3 * d
	vals["modelreg.registry_disk_hit_ms"], err = timed(9, func() error {
		cold := modelreg.NewRegistry(4)
		cold.SetDisk(disk)
		_, fromDisk, err := cold.Get(set.Key, build)
		if err == nil && !fromDisk {
			err = fmt.Errorf("registry rebuilt a set its disk tier holds")
		}
		return err
	})
	if err != nil {
		return err
	}

	// Disk cache: model-set-sized payloads under distinct digests.
	store, err := diskcache.Open(filepath.Join(dir, "diskcache"), "cost-ledger")
	if err != nil {
		return err
	}
	k := 0
	digest := func(i int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		return hex.EncodeToString(sum[:])
	}
	d, err = timed(17, func() error { k++; return store.Put(digest(k), payload) })
	if err != nil {
		return err
	}
	vals["diskcache.put_us"] = 1e3 * d
	k = 0
	d, err = timed(17, func() error {
		k++
		if _, ok := store.Get(digest(k)); !ok {
			return fmt.Errorf("disk cache lost entry %d", k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals["diskcache.get_us"] = 1e3 * d

	// Wire: one sweep line of the taint run.
	base := appgen.BaseConfig(x.cfg)
	rep, err := prep.Analyze(base)
	if err != nil {
		return err
	}
	line := api.SweepLine{Seq: 1, Index: 0, JobID: "job-1", Config: base,
		Result: api.NewAnalysisResult(x.cfg.App, prep.Digest, rep, api.DefaultCensusParams())}
	var raw []byte
	d, err = timed(33, func() (err error) { raw, err = json.Marshal(&line); return })
	if err != nil {
		return err
	}
	vals["api.encode_us_per_line"] = 1e3 * d
	vals["api.sweepline_bytes"] = float64(len(raw))
	return probeJournal(ctx, vals, filepath.Join(dir, "journal"), raw)
}

// probeJournal times the journal's write side (an fsynced append of a
// real point record) and its read side (recovery of an open 16-record
// journal). The share of an append that is the fsync is taken against
// an unsynced write of as many bytes to a file beside the journal.
func probeJournal(ctx context.Context, vals map[string]float64, dir string, line []byte) error {
	const records = 16
	st, err := journal.Open(dir)
	if err != nil {
		return err
	}
	key := strings.Repeat("ab", 32)
	job, err := st.Acquire(ctx, journal.KindSweep, key)
	if err != nil {
		return err
	}
	if err := job.Append(journal.Record{Type: journal.TypeAccept, Kind: journal.KindSweep, Key: key, N: records, FirstJobID: 1}); err != nil {
		return err
	}
	size0 := st.Stats().Bytes
	i := 0
	appendMS, err := timed(records-1, func() error {
		i++
		return job.Append(journal.Record{Type: journal.TypePoint, Index: i - 1, Line: line})
	})
	if err != nil {
		return err
	}
	frame := (st.Stats().Bytes - size0) / (records - 1)
	job.Release()
	vals["journal.append_us"] = 1e3 * appendMS
	vals["journal.append_bytes"] = float64(frame)

	f, err := os.Create(filepath.Join(dir, "unsynced.tmp"))
	if err != nil {
		return err
	}
	buf := make([]byte, frame)
	writeMS, err := timed(records-1, func() error { _, err := f.Write(buf); return err })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Remove(f.Name()); err != nil {
		return err
	}
	vals["journal.fsync_share"] = 1 - writeMS/appendMS

	var again *journal.Job
	vals["journal.replay_ms"], err = timed(1, func() error {
		st2, err := journal.Open(dir)
		if err != nil {
			return err
		}
		if again, err = st2.Acquire(ctx, journal.KindSweep, key); err != nil {
			return err
		}
		if got := len(again.Points()); got != records-1 {
			return fmt.Errorf("journal replayed %d of %d points", got, records-1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = again.Done()
	again.Release()
	return err
}

// counters is one reading of a daemon's /v1/stats and /metrics.
type counters struct {
	stats *api.StatsResponse
	prom  map[string]float64
}

func scrape(ctx context.Context, url string) (*counters, error) {
	st, err := service.NewClient(url).Stats(ctx)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c := &counters{stats: st, prom: make(map[string]float64)}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(value, 64); ok && err == nil && !strings.HasPrefix(name, "#") {
			c.prom[name] = v
		}
	}
	return c, sc.Err()
}

// serviceCounters turns two readings around a window into per-op rates.
func serviceCounters(vals map[string]float64, a, b *counters, ops float64) {
	rate := func(before, after uint64) float64 { return float64(after-before) / ops }
	prom := func(name string) float64 { return (b.prom[name] - a.prom[name]) / ops }
	for _, stage := range []string{"prepare", "run", "fit"} {
		vals["service.stage_"+stage+"_s"] = prom(`perftaintd_stage_duration_seconds_sum{stage="` + stage + `"}`)
	}
	vals["service.shard_s_sum"] = prom("perftaintd_cluster_shard_duration_seconds_sum")
	vals["service.prepared_hits"] = rate(a.stats.Cache.Hits, b.stats.Cache.Hits)
	vals["service.prepared_misses"] = rate(a.stats.Cache.Misses, b.stats.Cache.Misses)
	vals["service.prepared_disk_hits"] = rate(a.stats.Cache.DiskHits, b.stats.Cache.DiskHits)
	vals["service.models_hits"] = rate(a.stats.Models.Hits, b.stats.Models.Hits)
	vals["service.models_misses"] = rate(a.stats.Models.Misses, b.stats.Models.Misses)
	vals["service.models_disk_hits"] = rate(a.stats.Models.DiskHits, b.stats.Models.DiskHits)
	if ca, cb := a.stats.Cluster, b.stats.Cluster; ca != nil && cb != nil {
		vals["service.shards_dispatched"] = rate(ca.ShardsDispatched, cb.ShardsDispatched)
		vals["service.shards_local"] = rate(ca.ShardsLocal, cb.ShardsLocal)
		vals["service.shard_retries"] = rate(ca.ShardRetries, cb.ShardRetries)
	}
	if ja, jb := a.stats.Journal, b.stats.Journal; ja != nil && jb != nil {
		vals["journal.appends_per_op"] = rate(ja.Appends, jb.Appends)
	}
}

// probeService measures what the HTTP path adds to the same work done
// in process: one analysis, one registry hit, and one sweep — the sweep
// on the plain single-node daemon (the service overhead itself) and on
// the daemon under test (what its journal, or its sharding, adds).
func probeService(ctx context.Context, vals map[string]float64, sv *serviceView, reps int) error {
	cl := connect(sv.primary, 1)
	defer disconnect(cl)
	points := float64(len(sv.cfgs))

	inProc, err := timed(reps, func() error { _, err := sv.prep.Analyze(luleshApp.TaintConfig()); return err })
	if err != nil {
		return err
	}
	overHTTP, err := timed(reps, func() error { _, err := cl[0].Analyze(ctx, api.AnalyzeRequest{App: "lulesh"}); return err })
	if err != nil {
		return err
	}
	vals["service.analyze_overhead_ms"] = overHTTP - inProc

	hit := func() error {
		resp, err := cl[0].Models(ctx, sv.hit)
		if err == nil && !resp.Cached {
			err = fmt.Errorf("repeated model request was rebuilt")
		}
		return err
	}
	if _, err := cl[0].Models(ctx, sv.hit); err != nil {
		return err
	}
	if vals["service.models_hit_ms"], err = timed(reps, hit); err != nil {
		return err
	}

	k := int64(0)
	sweep := func(c *service.Client, first *time.Duration) func() error {
		return func() error {
			k++
			req := sv.sweep
			req.TimeoutMS = 50_000 + k
			t, n := time.Now(), 0
			err := c.Sweep(ctx, req, func(api.SweepLine) error {
				if n++; n == 1 && first != nil {
					*first = time.Since(t)
				}
				return nil
			})
			if err == nil && n != len(sv.cfgs) {
				err = fmt.Errorf("sweep streamed %d of %d lines", n, len(sv.cfgs))
			}
			return err
		}
	}
	var first time.Duration
	var firsts []float64
	primary, err := timed(reps, func() error {
		err := sweep(cl[0], &first)()
		firsts = append(firsts, ms(first))
		return err
	})
	if err != nil {
		return err
	}
	vals["service.first_line_ms"] = median(firsts)
	if sv.plain == "" {
		return nil
	}
	pc := connect(sv.plain, 1)
	defer disconnect(pc)
	plain, err := timed(reps, sweep(pc[0], nil))
	if err != nil {
		return err
	}
	local, err := timed(reps, func() error {
		return (&runner.Runner{Workers: 2}).SweepFitCtx(ctx, sv.prep, sv.cfgs, func(runner.Result) error { return nil })
	})
	if err != nil {
		return err
	}
	vals["service.sweep_overhead_us_per_point"] = 1e3 * (plain - local) / points
	if sv.journaled {
		vals["service.journal_overhead_us_per_point"] = 1e3 * (primary - plain) / points
	}
	if sv.sharded {
		vals["service.shard_overhead_us_per_point"] = 1e3 * (primary - plain) / points
	}
	return nil
}
