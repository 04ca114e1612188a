// Command chaossmoke is the CI crash-resilience gate: it drives real
// perftaintd processes — a coordinator with a durable journal plus a
// registered worker — through the failure modes the journal exists for,
// and fails loudly unless every run ends in the byte-identical artifact
// or a clean typed error.
//
// Three phases:
//
//  1. Golden: an unfaulted standalone daemon sweeps the reference
//     design; its stream is the byte-level contract for everything after.
//  2. Kill/resume: a coordinator+worker cluster runs the same sweep; the
//     coordinator is SIGKILLed mid-stream after two lines, restarted on
//     the same address and cache dir, and the retrying client must
//     observe every design point exactly once with bytes equal to the
//     golden stream. The restarted coordinator's /metrics must show the
//     journal replay, and its journal must be fully compacted.
//  3. Fault schedules: seeded faultinject schedules (PERFTAINT_FAULTS)
//     are handed to fresh clusters through the environment; each run
//     must reproduce the golden artifact (job IDs may shift when a fault
//     kills an acceptance before it is durable) or fail cleanly.
//
// The /metrics scrape of the restarted coordinator is written to
// -metrics-out so CI can archive the journal counters as an artifact.
//
//	go run ./cmd/chaossmoke -schedules 25 -metrics-out chaos_metrics.txt   # builds ./cmd/perftaintd itself
//	go run ./cmd/chaossmoke -daemon bin/perftaintd -schedules 25
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/service"
	"repro/internal/smoketest"
)

var (
	daemonPath = flag.String("daemon", "", "path to the perftaintd binary under test (empty = build ./cmd/perftaintd)")
	schedules  = flag.Int("schedules", 25, "seeded fault schedules to sweep in phase 3")
	metricsOut = flag.String("metrics-out", "chaos_metrics.txt", "file the restarted coordinator's /metrics scrape is written to")
)

// sweepReq is the reference design every phase runs.
func sweepReq() api.SweepRequest {
	return api.SweepRequest{
		App: "lulesh",
		Axes: []api.SweepAxis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{10, 14}},
		},
	}
}

// bg scopes every daemon and poll of the run; a hung phase is the CI
// job's timeout to catch.
var bg = context.Background()

// startDaemon spawns the daemon under test; addr "" picks a free port.
func startDaemon(what, addr string, env []string, args ...string) *smoketest.Daemon {
	d, err := smoketest.StartDaemon(bg, *daemonPath, addr, env, args...)
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	return d
}

// coordinatorArgs is the command line of a coordinator under test.
func coordinatorArgs(extra ...string) []string {
	return append([]string{"-coordinator", "-heartbeat-interval", "100ms"}, extra...)
}

// startCluster spawns a coordinator (with extra args) plus one registered
// worker and waits until the worker is live.
func startCluster(what string, env []string, coordArgs ...string) (coord, worker *smoketest.Daemon) {
	coord = startDaemon(what+" coordinator", "", env, coordinatorArgs(coordArgs...)...)
	worker = startDaemon(what+" worker", "", env, "-join", coord.Base, "-heartbeat-interval", "100ms")
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := smoketest.WaitLiveWorkers(ctx, coord.Base, 1); err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	return coord, worker
}

// sigterm asks the daemon to drain and requires a clean exit.
func sigterm(d *smoketest.Daemon, name string) {
	if err := d.Term(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
}

// rawSweep POSTs the reference sweep with no resume headers and returns
// the raw stream bytes.
func rawSweep(base string) ([]byte, error) {
	raw, err := json.Marshal(sweepReq())
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// linesOf re-marshals client-observed sweep lines into the canonical
// stream form so they compare byte-for-byte against a raw golden stream.
func linesOf(lines []api.SweepLine) []byte {
	var buf bytes.Buffer
	for i := range lines {
		raw, _ := json.Marshal(&lines[i])
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// retryingClient builds the reconnecting client every phase drives the
// cluster with.
func retryingClient(base string) *service.Client {
	c := service.NewClient(base)
	c.Retries = 12
	c.RetryBaseDelay = 50 * time.Millisecond
	return c
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("chaossmoke: ")
	flag.Parse()

	defer smoketest.Cleanup()
	golden := phaseGolden()
	phaseKillResume(golden)
	phaseSchedules(golden)

	if err := leakcheck.Settle(5 * time.Second); err != nil {
		log.Fatalf("goroutine leak after all phases: %v", err)
	}
	log.Print("all phases passed")
}

// phaseGolden records the uninterrupted single-daemon stream.
func phaseGolden() []byte {
	d := startDaemon("golden daemon", "", nil)
	golden, err := rawSweep(d.Base)
	if err != nil {
		log.Fatalf("golden sweep: %v", err)
	}
	sigterm(d, "golden daemon")
	log.Printf("phase 1: golden stream captured (%d bytes)", len(golden))
	return golden
}

// phaseKillResume SIGKILLs the coordinator mid-sweep, restarts it on the
// same address and cache dir, and requires the reconnecting client to
// assemble the golden bytes exactly once.
func phaseKillResume(golden []byte) {
	dir, err := os.MkdirTemp("", "chaossmoke-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	coordArgs := []string{"-cache-dir", dir, "-workers", "1", "-job-timeout", "120s"}
	coord, worker := startCluster("phase 2", nil, coordArgs...)

	// SIGKILL the coordinator after the second line; respawn it on the
	// same address over the same cache dir while the client backs off.
	var killOnce sync.Once
	respawned := make(chan *smoketest.Daemon, 1)
	var lines []api.SweepLine
	client := retryingClient(coord.Base)
	err = client.Sweep(bg, sweepReq(), func(l api.SweepLine) error {
		lines = append(lines, l)
		if len(lines) == 2 {
			killOnce.Do(func() {
				log.Printf("phase 2: SIGKILL coordinator after %d lines", len(lines))
				coord.Kill()
				go func() {
					respawned <- startDaemon("coordinator restart", coord.Addr, nil, coordinatorArgs(coordArgs...)...)
				}()
			})
		}
		return nil
	})
	if err != nil {
		log.Fatalf("phase 2: sweep across SIGKILL failed: %v", err)
	}
	if got := linesOf(lines); !bytes.Equal(got, golden) {
		log.Fatalf("phase 2: resumed stream diverged from golden:\n got: %s\nwant: %s", got, golden)
	}
	coord2 := <-respawned

	// The restarted coordinator's metrics are the journal's testimony:
	// the sweep was replayed, and nothing is left open.
	metrics, err := smoketest.ScrapeMetrics(bg, coord2.Base, *metricsOut)
	if err != nil {
		log.Fatalf("metrics scrape: %v", err)
	}
	requireMetric(metrics, "perftaintd_journal_replays_total", func(v float64) bool { return v >= 1 })
	requireMetric(metrics, "perftaintd_journal_open_jobs", func(v float64) bool { return v == 0 })
	log.Printf("phase 2: byte-identical resume across SIGKILL; metrics written to %s", *metricsOut)

	sigterm(worker, "worker")
	sigterm(coord2, "restarted coordinator")
}

// requireMetric asserts a sample is present and its value passes ok.
func requireMetric(metrics, name string, ok func(float64) bool) {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
			log.Fatalf("unparseable metric line %q: %v", line, err)
		}
		if !ok(v) {
			log.Fatalf("metric %s = %v violates the gate", name, v)
		}
		return
	}
	log.Fatalf("metric %s missing from /metrics", name)
}

// phaseSchedules sweeps seeded fault schedules through real clusters:
// each seed's schedule rides to both daemons in PERFTAINT_FAULTS, and
// the retrying client must end with the golden artifact or a clean
// typed error.
func phaseSchedules(golden []byte) {
	goldenLines := parseLines(golden)
	failures := 0
	for seed := 0; seed < *schedules; seed++ {
		spec := faultinject.Random(int64(seed), 3).String()
		env := []string{faultinject.EnvVar + "=" + spec}
		dir, err := os.MkdirTemp("", "chaossmoke-*")
		if err != nil {
			log.Fatal(err)
		}
		coord, worker := startCluster(fmt.Sprintf("seed %d", seed), env,
			"-cache-dir", dir, "-shard-timeout", "10s")

		ctx, cancel := context.WithTimeout(bg, 2*time.Minute)
		lines, err := retryingClient(coord.Base).SweepAll(ctx, sweepReq())
		cancel()
		seen := make(map[int]bool)
		for _, l := range lines {
			if seen[l.Index] {
				log.Fatalf("seed %d (%s): duplicate index %d", seed, spec, l.Index)
			}
			seen[l.Index] = true
		}
		if err != nil {
			failures++
			log.Printf("seed %d (%s): clean failure: %v", seed, spec, err)
		} else if !linesMatchModuloJobID(lines, goldenLines) {
			log.Fatalf("seed %d (%s): artifact diverged from golden", seed, spec)
		}

		sigterm(worker, fmt.Sprintf("seed %d worker", seed))
		sigterm(coord, fmt.Sprintf("seed %d coordinator", seed))
		os.RemoveAll(dir)
	}
	log.Printf("phase 3: %d schedules swept, %d clean failures, 0 corruptions", *schedules, failures)
}

// parseLines decodes a raw stream into lines.
func parseLines(raw []byte) []api.SweepLine {
	var out []api.SweepLine
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec api.SweepLine
		if err := json.Unmarshal(line, &rec); err != nil {
			log.Fatalf("bad golden line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// linesMatchModuloJobID compares artifacts ignoring job-ID labels (a
// fault that kills an acceptance append before it is durable legally
// shifts the retried sweep's ID block).
func linesMatchModuloJobID(got, want []api.SweepLine) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		g.JobID, w.JobID = "", ""
		gr, _ := json.Marshal(&g)
		wr, _ := json.Marshal(&w)
		if !bytes.Equal(gr, wr) {
			return false
		}
	}
	return true
}
