// Command smoke is the end-to-end gate on real perftaintd processes: it
// builds (or is handed) the daemon binary, spawns it in the topology a
// scenario needs, and fails unless every gate of that scenario holds.
//
//	go run ./cmd/smoke all                       # builds ./cmd/perftaintd itself
//	go run ./cmd/smoke -daemon bin/perftaintd service load
//	go run ./cmd/smoke -metrics-out chaos_metrics.txt chaos
//
// Run it from the repository root: the scenarios read the committed
// golden files and the examples/modeling design by relative path.
//
// A scenario is one row of the table below, written in one vocabulary
// (harness.go): start a daemon or a coordinator+N-worker cluster, term or
// kill a process, "bytes identical to reference" (sameBytes), "counter
// satisfies" (requireMetric on /metrics, gates on /v1/stats), and
// "endpoint answers status" (scrape, the typed client). Every daemon a
// scenario leaves running must drain cleanly on SIGTERM, and the smoke
// process itself must not leak a goroutine. A new fault scenario is a new
// row and its run function, not a new command.
//
//   - service: two LULESH submissions answer the golden census byte for
//     byte, from exactly one Prepared build.
//   - load: 8 clients x 12 mixed requests against -rate 1: no 5xx, at
//     least one 429; after a graceful restart over the same -cache-dir the
//     extracted model set is served from disk — GET by key, then POST —
//     with zero rebuilds, and /metrics shows the disk hit.
//   - cluster: the examples/modeling extraction through a coordinator and
//     two workers, one SIGKILLed at the first design point, reproduces the
//     single-node registry key and model-set bytes with shards really
//     dispatched; the single-node report equals the blessed golden report.
//   - chaos: a coordinator SIGKILLed mid-sweep and restarted resumes to the
//     byte-identical stream (journal replayed, no job left open), and 25
//     seeded fault schedules each end identical modulo job IDs or in a
//     clean typed error.
//
// -metrics-out names the file every /metrics scrape is written to, so
// what remains is the final scrape of the last scenario run, for CI to
// attach.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/leakcheck"
)

// scenario is one end-to-end gate.
type scenario struct {
	name string
	// deadline bounds the whole scenario; its daemons die with it.
	deadline time.Duration
	run      func(context.Context, *harness) error
	// proves is what a pass has shown.
	proves string
}

var scenarios = []scenario{
	{"service", 2 * time.Minute, runService,
		"golden census served, PreparedCache hit on resubmission"},
	{"load", 5 * time.Minute, runLoad,
		"no 5xx under load, limiter engaged, restart served from disk"},
	{"cluster", 10 * time.Minute, runCluster,
		"distributed extraction matched the single-node golden through a mid-sweep worker kill"},
	{"chaos", 30 * time.Minute, runChaos,
		"byte-identical resume across SIGKILL; every fault schedule ended identical or typed-clean"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smoke: ")
	daemon := flag.String("daemon", "", "path to the perftaintd binary (empty = build ./cmd/perftaintd)")
	metricsOut := flag.String("metrics-out", "", "write every /metrics scrape to this file; the last one — the last scenario's final scrape — remains")
	flag.Parse()
	if err := run(*daemon, *metricsOut, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

// run executes the named scenarios in order against one daemon binary.
func run(bin, metricsOut string, names []string) error {
	picked, err := pick(names)
	if err != nil {
		return err
	}
	if bin == "" {
		dir, err := os.MkdirTemp("", "smoke-bin-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "perftaintd")
		build := exec.Command("go", "build", "-o", bin, "./cmd/perftaintd")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build ./cmd/perftaintd: %w", err)
		}
	}
	for _, sc := range picked {
		log.SetPrefix("smoke " + sc.name + ": ")
		if err := sc.execute(bin, metricsOut); err != nil {
			return err
		}
		log.Printf("OK — %s", sc.proves)
	}
	return nil
}

// pick resolves scenario names to rows of the table, in table order;
// "all" is every row.
func pick(names []string) ([]scenario, error) {
	var picked []scenario
	known := []string{"all"}
	for _, sc := range scenarios {
		known = append(known, sc.name)
		if slices.Contains(names, sc.name) || slices.Contains(names, "all") {
			picked = append(picked, sc)
		}
	}
	for _, name := range names {
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown scenario %q (have %v)", name, known)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("usage: smoke [-daemon PATH] [-metrics-out FILE] <scenario>... (have %v)", known)
	}
	return picked, nil
}

// execute runs the scenario on a fresh harness, then holds it to the two
// gates every scenario shares: whatever it left running drains cleanly,
// and this process is back to no goroutines of its own.
func (sc scenario) execute(bin, metricsOut string) error {
	ctx, cancel := context.WithTimeout(context.Background(), sc.deadline)
	defer cancel()
	root, err := os.MkdirTemp("", "smoke-"+sc.name+"-*")
	if err != nil {
		return err
	}
	h := &harness{bin: bin, root: root, metricsOut: metricsOut}
	if err := errors.Join(sc.run(ctx, h), h.teardown()); err != nil {
		return err
	}
	if err := leakcheck.Settle(5 * time.Second); err != nil {
		return fmt.Errorf("goroutine leak after teardown: %w", err)
	}
	return nil
}
