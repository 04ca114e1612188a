// Command clustersmoke is the CI end-to-end check for distributed sweep
// execution: it boots a real coordinator daemon plus two worker daemons,
// runs the LULESH model extraction through the coordinator, SIGKILLs one
// worker as soon as the first design point streams back, and gates on
// the surviving cluster producing the exact same model-set registry key
// (and byte-identical model set) as an in-process single-node
// extraction. It also asserts that shards were actually dispatched to
// workers — a cluster that quietly fell back to local execution would
// pass the identity check while proving nothing — and scrapes the
// coordinator's final /metrics into a file for the CI artifact upload.
//
//	go run ./cmd/clustersmoke -metrics-out cluster_metrics.txt   # builds ./cmd/perftaintd itself
//	go run ./cmd/clustersmoke -daemon bin/perftaintd -metrics-out cluster_metrics.txt
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/smoketest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clustersmoke: ")
	daemon := flag.String("daemon", "", "path to the perftaintd binary (empty = build ./cmd/perftaintd)")
	metricsOut := flag.String("metrics-out", "", "write the coordinator's final /metrics scrape to this file")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall smoke deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *daemon, *metricsOut); err != nil {
		log.Fatal(err)
	}
	fmt.Println("clustersmoke: OK — distributed extraction matched the single-node golden through a mid-sweep worker kill")
}

// smokeConfig is the modeling design under test: the quickstart LULESH
// design (16 points), big enough to shard across two workers and to
// still be in flight when the kill lands.
func smokeConfig() modelreg.Config {
	return modelreg.Config{
		App:      "lulesh",
		Params:   []string{"p", "size"},
		Defaults: map[string]float64{"regions": 4, "balance": 2, "cost": 1, "iters": 2},
		Axes: []modelreg.Axis{
			{Param: "p", Values: []float64{2, 4, 8, 16}},
			{Param: "size", Values: []float64{4, 5, 6, 7}},
		},
		Reps:     3,
		Seed:     7,
		RelNoise: 0.02,
		Batch:    5,
	}
}

func run(ctx context.Context, daemon, metricsOut string) error {
	defer smoketest.Cleanup()
	// The golden: the same extraction, single-node and in-process. Its
	// registry key is content-addressed over spec + design, so the
	// cluster reproducing the key AND the model set proves the sharded
	// sweep fed the fitter the exact same measurements in the exact
	// same order.
	app := service.BundledApps()["lulesh"]
	cfg := service.ResolveModelDefaults(app, smokeConfig())
	spec := app.New()
	prep, err := core.Prepare(spec)
	if err != nil {
		return fmt.Errorf("prepare golden spec: %w", err)
	}
	wantKey := modelreg.Key(core.SpecDigest(spec), cfg)
	log.Printf("computing single-node golden (key %s)", wantKey)
	goldenMS, err := modelreg.Extract(ctx, runner.New(), prep, cfg, nil)
	if err != nil {
		return fmt.Errorf("single-node golden extraction: %w", err)
	}
	goldenJSON, err := json.Marshal(goldenMS)
	if err != nil {
		return err
	}

	coord, err := smoketest.StartDaemon(ctx, daemon, "", nil, "-coordinator")
	if err != nil {
		return fmt.Errorf("start coordinator: %w", err)
	}
	defer coord.Term()
	var workers [2]*smoketest.Daemon
	for i := range workers {
		w, err := smoketest.StartDaemon(ctx, daemon, "", nil, "-worker", "-join", coord.Base)
		if err != nil {
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		defer w.Term()
		workers[i] = w
	}

	client := service.NewClient(coord.Base)
	if err := smoketest.WaitLiveWorkers(ctx, coord.Base, len(workers)); err != nil {
		return err
	}
	log.Printf("cluster up: coordinator %s, %d live workers", coord.Base, len(workers))

	// Stream the extraction through the coordinator and SIGKILL one
	// worker the moment the first design point lands — from then on the
	// cluster must finish on the survivor (plus coordinator retries)
	// without perturbing a single byte of the artifact.
	var killOnce sync.Once
	req := modelRequest(smokeConfig())
	resp, err := client.ModelsStream(ctx, req, func(ev modelreg.Event) {
		if ev.Type == "point" {
			killOnce.Do(func() {
				log.Printf("first design point streamed (%d/%d) — SIGKILLing worker %s", ev.Points, ev.Total, workers[0].Base)
				workers[0].Kill()
			})
		}
	})
	if err != nil {
		return fmt.Errorf("distributed extraction: %w", err)
	}

	if resp.Key != wantKey {
		return fmt.Errorf("registry key diverged: cluster produced %s, single-node golden is %s", resp.Key, wantKey)
	}
	clusterJSON, err := json.Marshal(resp.ModelSet)
	if err != nil {
		return err
	}
	if !bytes.Equal(clusterJSON, goldenJSON) {
		return fmt.Errorf("model set diverged from the single-node golden despite equal keys (%d vs %d bytes)",
			len(clusterJSON), len(goldenJSON))
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Cluster == nil || st.Cluster.Role != "coordinator" {
		return fmt.Errorf("coordinator /v1/stats has no coordinator cluster block: %+v", st.Cluster)
	}
	if st.Cluster.ShardsDispatched == 0 {
		return fmt.Errorf("no shards were dispatched to workers — the sweep ran locally, proving nothing")
	}
	log.Printf("cluster stats: %d shards dispatched, %d local, %d retries, %d heartbeat misses",
		st.Cluster.ShardsDispatched, st.Cluster.ShardsLocal, st.Cluster.ShardRetries, st.Cluster.HeartbeatMisses)

	if metricsOut != "" {
		if _, err := smoketest.ScrapeMetrics(ctx, coord.Base, metricsOut); err != nil {
			return err
		}
		log.Printf("wrote coordinator /metrics scrape to %s", metricsOut)
	}
	return nil
}

// modelRequest is the wire form of the smoke design.
func modelRequest(cfg modelreg.Config) api.ModelRequest {
	req := api.ModelRequest{
		App:      cfg.App,
		Params:   cfg.Params,
		Defaults: cfg.Defaults,
		Reps:     cfg.Reps,
		Seed:     cfg.Seed,
		RelNoise: cfg.RelNoise,
		Batch:    cfg.Batch,
		Metrics:  cfg.Metrics,
	}
	for _, ax := range cfg.Axes {
		req.Axes = append(req.Axes, api.SweepAxis{Param: ax.Param, Values: ax.Values})
	}
	return req
}
