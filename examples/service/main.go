// Analysis-as-a-service walkthrough: start the perftaintd daemon
// in-process, submit single analyses and a streamed parameter sweep
// through the HTTP client, and watch the content-addressed PreparedCache
// absorb the per-spec cost.
//
// The same traffic works against a standalone daemon:
//
//	perftaintd -addr :7070 &
//	perftaint submit -addr http://127.0.0.1:7070 -app lulesh
//	perftaint submit -addr http://127.0.0.1:7070 -app lulesh -sweep 'p=2,4,8'
//	perftaint stats  -addr http://127.0.0.1:7070
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	perftaint "repro"
)

func main() {
	log.SetFlags(0)

	// A persistent cache root: every model set the daemon extracts is
	// written through here (and sweep progress journaled), so a restarted
	// daemon serves finished sets without re-running them; prepared specs
	// are memory-only and rebuilt once each. In production this is
	// `perftaintd -cache-dir /var/cache/perftaintd`.
	cacheDir, err := os.MkdirTemp("", "perftaintd-cache-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)

	// 1. Start the daemon on a loopback port. In production this is
	//    `perftaintd -addr :7070 -workers 8 -cache-entries 16`.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	srv, err := perftaint.NewServer(perftaint.ServerOptions{Workers: 4, CacheEntries: 8, CacheDir: cacheDir})
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	client := perftaint.NewClient("http://" + addr)
	if err := client.Health(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon up on %s\n", addr)

	// 2. Submit the paper's LULESH taint run. The first submission pays
	//    core.Prepare (module build + static pass + predecode)...
	job, err := client.Analyze(ctx, perftaint.AnalyzeRequest{App: "lulesh"})
	if err != nil {
		log.Fatal(err)
	}
	if job.Result == nil {
		log.Fatalf("job %s finished %q: %s", job.ID, job.Status, job.Error)
	}
	fmt.Printf("job %s: %s in %dms, %.1f%% of functions constant\n",
		job.ID, job.Status, job.DurationMS, job.Result.Census.PercentConstant)
	fmt.Printf("spec content address: %s...\n", job.Result.SpecDigest[:16])

	// 3. ...and every later submission of the same spec content shares
	//    the cached Prepared, whatever configuration it analyzes.
	if _, err := client.Analyze(ctx, perftaint.AnalyzeRequest{
		App:    "lulesh",
		Config: perftaint.Config{"p": 27},
	}); err != nil {
		log.Fatal(err)
	}

	// 4. Sweeps stream NDJSON in deterministic design order; nothing
	//    buffers server-side, so designs can be arbitrarily large.
	fmt.Println("sweep p x size:")
	err = client.Sweep(ctx, perftaint.SweepRequest{
		App: "lulesh",
		Axes: []perftaint.Axis{
			{Param: "p", Values: []float64{2, 4, 8}},
			{Param: "size", Values: []float64{4, 5}},
		},
	}, func(line perftaint.SweepLine) error {
		if line.Error != "" {
			return fmt.Errorf("config %d failed: %s", line.Index, line.Error)
		}
		fmt.Printf("  [%d] p=%-3g size=%g  instructions=%d\n",
			line.Index, line.Config["p"], line.Config["size"], line.Result.Instructions)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The stats endpoint shows the cache doing its job: one miss (the
	//    single build) and a hit for every later submission.
	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache: %d hits / %d misses / %d entries; jobs completed: %d\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, st.Jobs.Completed)

	// 6. Extract a model set — the expensive sweep-and-fit artifact the
	//    persistent tier is really for.
	modelReq := perftaint.ModelRequest{
		App:    "lulesh",
		Params: []string{"p", "size"},
		Axes: []perftaint.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		},
		Reps: 2, Seed: 3,
	}
	ms, err := client.Models(ctx, modelReq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model set %s...: %d functions, cached=%v\n", ms.Key[:16], len(ms.ModelSet.Functions), ms.Cached)

	// 7. Kill the daemon and start a fresh one over the same cache dir:
	//    the restart serves the model set from disk with zero rebuilds
	//    (no sweep, no fit); the spec itself is re-prepared once.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon stopped; restarting over the same cache dir")

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	srv2, err := perftaint.NewServer(perftaint.ServerOptions{Workers: 4, CacheEntries: 8, CacheDir: cacheDir})
	if err != nil {
		log.Fatal(err)
	}
	ready2 := make(chan string, 1)
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.ListenAndServe(ctx2, "127.0.0.1:0", ready2) }()
	client2 := perftaint.NewClient("http://" + <-ready2)

	warm, err := client2.Models(ctx2, modelReq)
	if err != nil {
		log.Fatal(err)
	}
	st2, err := client2.Stats(ctx2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart: model cached=%v, model disk hits=%d, model rebuilds=%d, prepare rebuilds=%d\n",
		warm.Cached, st2.Models.DiskHits, st2.Models.Misses, st2.Cache.Misses)
	if !warm.Cached || st2.Models.DiskHits == 0 {
		log.Fatal("restart did not serve the model set from disk")
	}

	cancel2()
	if err := <-done2; err != nil {
		log.Fatal(err)
	}

	// 8. Scale out: one coordinator plus two workers. The coordinator
	//    keeps the exact same client API and shards the sweep across the
	//    workers — the merged stream is byte-identical to a single-node
	//    run, so this block is all deployment and zero client changes.
	//    In production this is
	//    `perftaintd -addr :7070 -coordinator` plus
	//    `perftaintd -addr :7071 -worker -join http://coord:7070` (x N).
	fmt.Println("starting a 1-coordinator / 2-worker cluster")
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	var drains []chan error
	boot := func(opts perftaint.ServerOptions) string {
		srv, err := perftaint.NewServer(opts)
		if err != nil {
			log.Fatal(err)
		}
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe(cctx, "127.0.0.1:0", ready) }()
		drains = append(drains, done)
		return <-ready
	}
	coordAddr := boot(perftaint.ServerOptions{Workers: 2, Coordinator: true})
	for i := 0; i < 2; i++ {
		boot(perftaint.ServerOptions{Workers: 2, JoinURL: "http://" + coordAddr})
	}
	coord := perftaint.NewClient("http://" + coordAddr)
	for { // workers register on their first heartbeat tick
		st, err := coord.Stats(cctx)
		if err == nil && st.Cluster != nil && st.Cluster.LiveWorkers == 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Println("sweep p x size, sharded across 2 workers:")
	err = coord.Sweep(cctx, perftaint.SweepRequest{
		App: "lulesh",
		Axes: []perftaint.Axis{
			{Param: "p", Values: []float64{2, 4, 8}},
			{Param: "size", Values: []float64{4, 5}},
		},
	}, func(line perftaint.SweepLine) error {
		if line.Error != "" {
			return fmt.Errorf("config %d failed: %s", line.Index, line.Error)
		}
		fmt.Printf("  [%d] p=%-3g size=%g  instructions=%d\n",
			line.Index, line.Config["p"], line.Config["size"], line.Result.Instructions)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	cst, err := coord.Stats(cctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d live workers, %d shards dispatched, %d run locally, %d retries\n",
		cst.Cluster.LiveWorkers, cst.Cluster.ShardsDispatched, cst.Cluster.ShardsLocal, cst.Cluster.ShardRetries)
	if cst.Cluster.ShardsDispatched == 0 {
		log.Fatal("coordinator never dispatched a shard")
	}

	ccancel()
	for _, done := range drains {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
}
