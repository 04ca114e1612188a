package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// The reference designs, each declared once. The cluster scenario's is
// the file examples/modeling and modelreg.TestGoldenReport also read.
var (
	luleshAnalysis = api.AnalyzeRequest{App: "lulesh"}

	// smallModel is the 4-point LULESH extraction the load scenario runs
	// before and after its restart: identical bytes, so the second
	// daemon addresses the first one's artifact.
	smallModel = api.ModelRequest{
		App:    "lulesh",
		Params: []string{"p", "size"},
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps: 2, Seed: 3, Batch: 2,
	}

	// chaosSweep is the design every chaos phase runs.
	chaosSweep = api.SweepRequest{
		App: "lulesh",
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{10, 14}},
		},
	}
)

const (
	censusGolden  = "internal/core/testdata/lulesh_golden.json"
	clusterDesign = "examples/modeling/lulesh.json"
	reportGolden  = "internal/modelreg/testdata/lulesh_report.golden.md"
)

// runService: one daemon serves the LULESH taint configuration twice.
// Both answers must be the golden census snapshot byte for byte, and the
// two submissions must have cost exactly one Prepared build.
func runService(ctx context.Context, h *harness) error {
	want, err := os.ReadFile(censusGolden)
	if err != nil {
		return fmt.Errorf("read golden snapshot: %w", err)
	}
	d, err := h.start(ctx, "", nil)
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		job, err := d.client.Analyze(ctx, luleshAnalysis)
		if err != nil {
			return fmt.Errorf("analyze #%d: %w", i, err)
		}
		if job.Status != api.StatusDone || job.Result == nil {
			return fmt.Errorf("analyze #%d: job %s finished %q (error: %s)", i, job.ID, job.Status, job.Error)
		}
		// The schema and encoding internal/core's golden test writes.
		got, err := json.MarshalIndent(struct {
			Census       core.Census         `json:"census"`
			FuncDeps     map[string][]string `json:"func_deps"`
			Instructions int64               `json:"instructions"`
		}{job.Result.Census, job.Result.FuncDeps, job.Result.Instructions}, "", "  ")
		if err != nil {
			return err
		}
		if err := sameBytes(fmt.Sprintf("submission %d vs %s", i, censusGolden), append(got, '\n'), want); err != nil {
			return err
		}
	}
	st, err := d.client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	log.Printf("stats: %d hit(s), %d miss(es), %d completed job(s)", st.Cache.Hits, st.Cache.Misses, st.Jobs.Completed)
	_, err = h.scrape(d)
	return errors.Join(err,
		unless(st.Cache.Misses == 1, "cache misses = %d, want exactly 1 (one spec, one build)", st.Cache.Misses),
		unless(st.Cache.Hits >= 1, "cache hits = %d, want >= 1 — the second submission did not reuse the Prepared", st.Cache.Hits),
		unless(st.Jobs.Completed >= 2, "completed jobs = %d, want >= 2", st.Jobs.Completed))
}

// The load scenario's storm: stormClients concurrent clients, each
// submitting stormRequests requests under its own X-Client-ID against a
// per-client admission rate low enough that such a burst must trip it.
const (
	stormClients  = 8
	stormRequests = 12
	stormRate     = "1"
)

// runLoad storms a rate-limited daemon with mixed traffic (no 5xx, at
// least one 429, something admitted), extracts a model set, drains the
// daemon, and requires a fresh process over the same cache dir to serve
// that set from disk with zero rebuilds — by GET /v1/models/{key} before
// any POST has re-registered the key, then by POST.
func runLoad(ctx context.Context, h *harness) error {
	cacheDir := filepath.Join(h.root, "cache") // the daemon creates it
	d, err := h.start(ctx, "", nil, "-cache-dir", cacheDir, "-rate", stormRate, "-workers", "4")
	if err != nil {
		return err
	}
	ok, limited, failed, other := storm(ctx, d.base)
	log.Printf("storm: %d ok, %d rate-limited, %d server errors, %d other errors", ok, limited, failed, other)
	if err := errors.Join(ctx.Err(),
		unless(failed == 0, "%d responses were 5xx under load", failed),
		unless(limited > 0, "limiter never engaged: %d clients x %d requests all admitted at rate %s",
			stormClients, stormRequests, stormRate),
		unless(ok > 0, "no request succeeded — the limiter starved everything")); err != nil {
		return err
	}
	first, err := d.client.Models(ctx, smallModel)
	if err != nil {
		return fmt.Errorf("model extraction before restart: %w", err)
	}
	if _, err := h.scrape(d); err != nil {
		return fmt.Errorf("before restart: %w", err)
	}
	if err := d.term(); err != nil { // the graceful-drain path, not a hard kill
		return err
	}

	d2, err := h.start(ctx, "", nil, "-cache-dir", cacheDir, "-workers", "4")
	if err != nil {
		return err
	}
	// The pre-restart key is a durable content address: it must resolve
	// before any POST has touched the new process.
	byKey, err := d2.client.ModelByKey(ctx, first.Key)
	if err != nil {
		return fmt.Errorf("GET /v1/models/{key} after restart, before any POST: %w", err)
	}
	warm, err := d2.client.Models(ctx, smallModel)
	if err != nil {
		return fmt.Errorf("model extraction after restart: %w", err)
	}
	if _, err := d2.client.Analyze(ctx, luleshAnalysis); err != nil {
		return fmt.Errorf("analyze after restart: %w", err)
	}
	st, err := d2.client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats after restart: %w", err)
	}
	log.Printf("restart: model disk hits=%d, model rebuilds=%d, prepare rebuilds=%d",
		st.Models.DiskHits, st.Models.Misses, st.Cache.Misses)
	text, err := h.scrape(d2)
	return errors.Join(err,
		unless(byKey.Key == first.Key && byKey.ModelSet != nil,
			"GET by key after restart answered key %s, want %s with its model set", byKey.Key, first.Key),
		unless(warm.Cached, "restarted daemon rebuilt the model set instead of serving the disk tier"),
		unless(warm.Key == first.Key, "model key drifted across restart: %s vs %s", warm.Key, first.Key),
		unless(st.Models.DiskHits > 0, "restarted registry reports no disk hits (stats: %+v)", st.Models),
		unless(st.Models.Misses == 0, "restarted registry rebuilt %d model sets, want 0", st.Models.Misses),
		requireMetric(text, `perftaintd_cache_disk_hits_total{cache="models"}`, func(v float64) bool { return v > 0 }))
}

// storm runs the mixed-traffic load — analyses, NDJSON sweeps and stats
// polls — and buckets every outcome: admitted, 429 (the point of the
// limiter), 5xx (fatal to the scenario), anything else.
func storm(ctx context.Context, base string) (ok, limited, failed, other uint64) {
	var nOK, nLimited, nFailed, nOther atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < stormClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &service.Client{BaseURL: base, HTTP: &http.Client{Transport: clientID(fmt.Sprintf("smoke-%d", c))}}
			for i := 0; i < stormRequests; i++ {
				var err error
				switch i % 4 {
				case 0, 1:
					_, err = cl.Analyze(ctx, luleshAnalysis)
				case 2:
					err = cl.Sweep(ctx, api.SweepRequest{
						App:  "lulesh",
						Axes: []runner.Axis{{Param: "p", Values: []float64{2, 4}}},
					}, func(api.SweepLine) error { return nil })
				default:
					_, err = cl.Stats(ctx)
				}
				var apiErr *api.APIError
				switch {
				case err == nil:
					nOK.Add(1)
				case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests:
					nLimited.Add(1)
				case errors.As(err, &apiErr) && apiErr.StatusCode >= 500:
					nFailed.Add(1)
				default:
					nOther.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return nOK.Load(), nLimited.Load(), nFailed.Load(), nOther.Load()
}

// clientID stamps every request with a stable X-Client-ID so each
// simulated client owns its own admission bucket.
type clientID string

// RoundTrip implements http.RoundTripper.
func (id clientID) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(service.ClientIDHeader, string(id))
	return http.DefaultTransport.RoundTrip(req)
}

// runCluster runs the examples/modeling LULESH extraction (16 points:
// enough to shard across two workers and still be in flight when the
// kill lands) through a coordinator and two workers, SIGKILLs one worker
// when the first design point streams back, and requires the registry
// key and the model-set bytes of an in-process single-node extraction.
// The key is content-addressed over spec + design, so reproducing both
// proves the sharded sweep fed the fitter the same measurements in the
// same order. Shards must really have been dispatched: a cluster that
// quietly ran everything locally would pass the identity check while
// proving nothing.
func runCluster(ctx context.Context, h *harness) error {
	raw, err := os.ReadFile(clusterDesign)
	if err != nil {
		return err
	}
	var design modelreg.Config
	if err := json.Unmarshal(raw, &design); err != nil {
		return fmt.Errorf("parse %s: %w", clusterDesign, err)
	}
	app := service.BundledApps()[design.App]
	cfg := service.ResolveModelDefaults(app, design)
	spec := app.New()
	prep, err := core.Prepare(spec)
	if err != nil {
		return fmt.Errorf("prepare golden spec: %w", err)
	}
	wantKey := modelreg.Key(core.SpecDigest(spec), cfg)
	log.Printf("computing single-node golden (key %s)", wantKey)
	golden, err := modelreg.Extract(ctx, runner.New(), prep, cfg, nil)
	if err != nil {
		return fmt.Errorf("single-node golden extraction: %w", err)
	}
	// The design file through the shared overlay must still yield the
	// blessed report, exactly.
	blessed, err := os.ReadFile(reportGolden)
	if err != nil {
		return err
	}
	if err := sameBytes("single-node report vs "+reportGolden, []byte(modelreg.RenderMarkdown(golden)), blessed); err != nil {
		return fmt.Errorf("%w\n(re-bless with `go test ./internal/modelreg -run Golden -update` if intentional)", err)
	}
	goldenJSON, err := json.Marshal(golden)
	if err != nil {
		return err
	}

	coord, workers, err := h.cluster(ctx, 2, nil, []string{"-coordinator"}, nil)
	if err != nil {
		return err
	}
	log.Printf("cluster up: coordinator %s, %d live workers", coord.base, len(workers))
	// From the kill on, the cluster must finish on the survivor (plus
	// coordinator retries) without perturbing a byte of the artifact.
	resp, err := coord.client.ModelsStream(ctx, api.NewModelRequest(design), func(ev modelreg.Event) {
		if ev.Type == "point" && !workers[0].stopped {
			log.Printf("first design point streamed (%d/%d) — SIGKILLing worker %s", ev.Points, ev.Total, workers[0].base)
			workers[0].kill()
		}
	})
	if err != nil {
		return fmt.Errorf("distributed extraction: %w", err)
	}
	clusterJSON, err := json.Marshal(resp.ModelSet)
	if err != nil {
		return err
	}
	st, err := coord.client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Cluster == nil || st.Cluster.Role != "coordinator" {
		return fmt.Errorf("coordinator /v1/stats has no coordinator cluster block: %+v", st.Cluster)
	}
	log.Printf("cluster stats: %d shards dispatched, %d local, %d retries, %d heartbeat misses",
		st.Cluster.ShardsDispatched, st.Cluster.ShardsLocal, st.Cluster.ShardRetries, st.Cluster.HeartbeatMisses)
	_, err = h.scrape(coord)
	return errors.Join(err,
		unless(resp.Key == wantKey, "registry key diverged: cluster produced %s, single-node golden is %s", resp.Key, wantKey),
		sameBytes("cluster model set vs single-node golden", clusterJSON, goldenJSON),
		unless(st.Cluster.ShardsDispatched > 0, "no shards were dispatched to workers — the sweep ran locally, proving nothing"))
}

// chaosSchedules is the number of seeded fault schedules runChaos sweeps.
const chaosSchedules = 25

// runChaos drives journaled coordinator+worker clusters through the
// failures the journal exists for; every run must end in the
// byte-identical artifact or a clean typed error.
//
//  1. Golden: an unfaulted standalone daemon sweeps chaosSweep; its raw
//     stream is the byte-level contract for everything after.
//  2. Kill/resume: the coordinator is SIGKILLed after two lines and
//     restarted on the same address and cache dir while the client backs
//     off; the retrying client must observe every design point exactly
//     once, with the golden bytes. The restarted coordinator's /metrics
//     must show the journal replay and no job left open.
//  3. Fault schedules: seeded faultinject schedules reach fresh clusters
//     through PERFTAINT_FAULTS; each run reproduces the golden artifact
//     (job IDs may shift when a fault kills an acceptance before it is
//     durable) or fails cleanly, and never delivers an index twice.
func runChaos(ctx context.Context, h *harness) error {
	d, err := h.start(ctx, "", nil)
	if err != nil {
		return err
	}
	req, err := json.Marshal(chaosSweep)
	if err != nil {
		return err
	}
	// A raw POST with no resume headers: the wire bytes themselves are
	// the reference, not a client's reading of them.
	golden, _, err := okBody(http.Post(d.base+"/v1/sweep", "application/json", bytes.NewReader(req)))
	if err != nil {
		return fmt.Errorf("golden sweep: %w", err)
	}
	log.Printf("phase 1: golden stream captured (%d bytes)", len(golden))
	var goldenLines []api.SweepLine
	for _, line := range bytes.Split(bytes.TrimSpace(golden), []byte{'\n'}) {
		var rec api.SweepLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad golden line %q: %w", line, err)
		}
		goldenLines = append(goldenLines, rec)
	}

	if err := chaosKillResume(ctx, h, golden); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}

	failures := 0
	for seed := 0; seed < chaosSchedules; seed++ {
		spec := faultinject.Random(int64(seed), 3).String()
		clean, err := chaosSchedule(ctx, h, spec, goldenLines)
		if err != nil {
			return fmt.Errorf("seed %d (%s): %w", seed, spec, err)
		}
		if clean != nil {
			failures++
			log.Printf("seed %d (%s): clean failure: %v", seed, spec, clean)
		}
	}
	log.Printf("phase 3: %d schedules swept, %d clean failures, 0 corruptions", chaosSchedules, failures)
	return nil
}

// chaosCluster starts the journaled coordinator+worker pair of one chaos
// run — on a 100ms heartbeat, over a cache dir of its own, driven through
// a reconnecting client — and returns the coordinator's command line for
// a restart.
func chaosCluster(ctx context.Context, h *harness, env []string, coordArgs ...string) (coord, worker *daemon, args []string, err error) {
	// Fresh per cluster: named by how many daemons were started before it.
	dir := filepath.Join(h.root, fmt.Sprintf("cluster-%d", len(h.daemons)))
	beat := []string{"-heartbeat-interval", "100ms"}
	args = append(append([]string{"-coordinator", "-cache-dir", dir}, beat...), coordArgs...)
	coord, workers, err := h.cluster(ctx, 1, env, args, beat)
	if err != nil {
		return nil, nil, nil, err
	}
	coord.client.Retries, coord.client.RetryBaseDelay = 12, 50*time.Millisecond
	return coord, workers[0], args, nil
}

// chaosKillResume is phase 2 of runChaos.
func chaosKillResume(ctx context.Context, h *harness, golden []byte) error {
	coord, worker, args, err := chaosCluster(ctx, h, nil, "-workers", "1", "-job-timeout", "120s")
	if err != nil {
		return err
	}
	var (
		lines     []api.SweepLine
		coord2    *daemon
		respawned chan error // non-nil once the kill has happened
	)
	sweepErr := coord.client.Sweep(ctx, chaosSweep, func(l api.SweepLine) error {
		if lines = append(lines, l); len(lines) == 2 {
			log.Printf("phase 2: SIGKILL coordinator after %d lines", len(lines))
			coord.kill()
			respawned = make(chan error, 1)
			go func() {
				var err error
				coord2, err = h.start(ctx, coord.addr, nil, args...)
				respawned <- err
			}()
		}
		return nil
	})
	if respawned == nil {
		return fmt.Errorf("sweep ended after %d lines, before the kill point (error: %v)", len(lines), sweepErr)
	}
	if err := errors.Join(<-respawned, sweepErr); err != nil {
		return fmt.Errorf("coordinator restart, or the sweep across it, failed: %w", err)
	}
	if err := sameBytes("resumed stream vs golden", streamBytes(lines, true), golden); err != nil {
		return err
	}
	// The restarted coordinator's metrics are the journal's testimony:
	// the sweep was replayed, and nothing is left open.
	metrics, err := h.scrape(coord2)
	if err != nil {
		return err
	}
	log.Print("phase 2: byte-identical resume across SIGKILL")
	return errors.Join(
		requireMetric(metrics, "perftaintd_journal_replays_total", func(v float64) bool { return v >= 1 }),
		requireMetric(metrics, "perftaintd_journal_open_jobs", func(v float64) bool { return v == 0 }),
		worker.term(), coord2.term())
}

// chaosSchedule runs chaosSweep on a fresh cluster under one fault
// schedule. clean is the typed error of a run that failed cleanly; err
// is a broken gate.
func chaosSchedule(ctx context.Context, h *harness, spec string, golden []api.SweepLine) (clean, err error) {
	coord, worker, _, err := chaosCluster(ctx, h, []string{faultinject.EnvVar + "=" + spec}, "-shard-timeout", "10s")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	lines, clean := coord.client.SweepAll(sctx, chaosSweep)
	cancel()
	seen := make(map[int]bool)
	for _, l := range lines {
		if seen[l.Index] {
			return nil, fmt.Errorf("duplicate index %d", l.Index)
		}
		seen[l.Index] = true
	}
	if clean == nil {
		// A fault that kills an acceptance append before it is durable
		// legally shifts the retried sweep's job-ID block.
		if err := sameBytes("artifact (job IDs aside) vs golden", streamBytes(lines, false), streamBytes(golden, false)); err != nil {
			return nil, err
		}
	}
	return clean, errors.Join(worker.term(), coord.term())
}

// streamBytes re-marshals client-observed sweep lines into the canonical
// stream form, so they compare byte-for-byte against a raw stream; with
// jobIDs false the job-ID labels are blanked first.
func streamBytes(lines []api.SweepLine, jobIDs bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if !jobIDs {
			l.JobID = ""
		}
		_ = enc.Encode(&l) // a decoded SweepLine always re-encodes
	}
	return buf.Bytes()
}
