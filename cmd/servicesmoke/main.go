// Command servicesmoke is the CI end-to-end check for the analysis
// daemon: it launches a real perftaintd process, submits the LULESH
// taint configuration through the HTTP client twice, verifies the
// returned census and dependencies against the golden snapshot under
// internal/core/testdata, and asserts that the second submission was
// served from the PreparedCache (hits > 0 in /v1/stats). It exits
// non-zero with a diagnostic on any mismatch.
//
//	go run ./cmd/servicesmoke                      # builds ./cmd/perftaintd itself
//	go run ./cmd/servicesmoke -daemon bin/perftaintd
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/smoketest"
)

// goldenSnapshot mirrors the schema of internal/core/testdata/*.json.
type goldenSnapshot struct {
	Census       core.Census         `json:"census"`
	FuncDeps     map[string][]string `json:"func_deps"`
	Instructions int64               `json:"instructions"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("servicesmoke: ")
	daemon := flag.String("daemon", "", "path to the perftaintd binary (empty = build ./cmd/perftaintd)")
	golden := flag.String("golden", "internal/core/testdata/lulesh_golden.json", "golden snapshot to compare against")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall smoke deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *daemon, *golden); err != nil {
		log.Fatal(err)
	}
	fmt.Println("servicesmoke: OK — golden census served, PreparedCache hit on resubmission")
}

func run(ctx context.Context, daemon, goldenPath string) error {
	defer smoketest.Cleanup()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("read golden snapshot: %w", err)
	}
	var want goldenSnapshot
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("parse golden snapshot: %w", err)
	}

	d, err := smoketest.StartDaemon(ctx, daemon, "", nil)
	if err != nil {
		return err
	}
	defer d.Term()
	client := service.NewClient(d.Base)

	// Submit the LULESH taint config twice: identical results, and the
	// second submission must be a cache hit.
	var jobs [2]*api.JobInfo
	for i := range jobs {
		job, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh"})
		if err != nil {
			return fmt.Errorf("analyze #%d: %w", i+1, err)
		}
		if job.Status != api.StatusDone || job.Result == nil {
			return fmt.Errorf("analyze #%d: job %s finished %q (error: %s)", i+1, job.ID, job.Status, job.Error)
		}
		jobs[i] = job
	}

	for i, job := range jobs {
		res := job.Result
		if res.Census != want.Census {
			return fmt.Errorf("submission %d: census drifted from %s:\n got: %+v\nwant: %+v",
				i+1, goldenPath, res.Census, want.Census)
		}
		if res.Instructions != want.Instructions {
			return fmt.Errorf("submission %d: instructions = %d, golden says %d",
				i+1, res.Instructions, want.Instructions)
		}
		if !reflect.DeepEqual(res.FuncDeps, want.FuncDeps) {
			return fmt.Errorf("submission %d: function dependencies drifted from golden snapshot", i+1)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Cache.Misses != 1 {
		return fmt.Errorf("cache misses = %d, want exactly 1 (one spec, one build)", st.Cache.Misses)
	}
	if st.Cache.Hits < 1 {
		return fmt.Errorf("cache hits = %d, want >= 1 — the second submission did not reuse the Prepared", st.Cache.Hits)
	}
	if st.Jobs.Completed < 2 {
		return fmt.Errorf("completed jobs = %d, want >= 2", st.Jobs.Completed)
	}
	fmt.Printf("servicesmoke: stats: %d hit(s), %d miss(es), %d completed job(s)\n",
		st.Cache.Hits, st.Cache.Misses, st.Jobs.Completed)
	return nil
}
