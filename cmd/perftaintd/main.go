// Command perftaintd is the Perf-Taint analysis daemon: a long-running
// HTTP service that prepares each application spec once (content-addressed
// PreparedCache) and runs at most -workers analyses at once.
//
//	perftaintd -addr :7070 -workers 8 -cache-entries 16
//
// Daemons also cluster: a coordinator accepts the ordinary client API
// and shards sweeps and model extractions across registered workers,
// retrying failed shards and keeping the merged output byte-identical
// to a single-node run.
//
//	perftaintd -addr :7070 -coordinator
//	perftaintd -addr :7071 -worker -join http://coord-host:7070
//	perftaintd -addr :7072 -worker -join http://coord-host:7070
//
// Endpoints: POST /v1/analyze, POST /v1/sweep (NDJSON stream),
// POST /v1/models (sweep+fit with a content-addressed model registry),
// GET /v1/models/{key}, GET /v1/jobs/{id}, GET /v1/stats, GET /healthz,
// plus the cluster surface: POST /v1/shard (any daemon), and on
// coordinators POST /v1/worker/register, POST /v1/worker/heartbeat.
// See internal/service for the wire schema and `perftaint submit` /
// `perftaint model` for ready-made clients.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for the -pprof listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("perftaintd: ")
	var opts service.Options
	addr := flag.String("addr", ":7070", "listen address")
	flag.IntVar(&opts.Workers, "workers", 0, "concurrent analysis jobs (0 = GOMAXPROCS)")
	flag.IntVar(&opts.CacheEntries, "cache-entries", 16, "PreparedCache capacity (distinct spec contents)")
	flag.DurationVar(&opts.JobTimeout, "job-timeout", 60*time.Second, "default per-job deadline")
	flag.IntVar(&opts.ModelEntries, "model-entries", 16, "model registry capacity (distinct spec+design contents)")
	flag.StringVar(&opts.CacheDir, "cache-dir", "", "persistent root for finished model sets and the job journal; restarts serve stored sets warm and resume interrupted sweeps and model extractions (empty = memory only)")
	flag.Float64Var(&opts.Rate, "rate", 0, "per-client admission rate in tokens/second, bucket capacity max(1, 2*rate) (1 analysis = 1 token, sweeps cost design size); 0 disables rate limiting")
	flag.Int64Var(&opts.MaxBodyBytes, "max-body", 0, "maximum JSON request body in bytes (0 = 4 MiB)")
	pprofAddr := flag.String("pprof", "", "optional debug listen address for net/http/pprof (e.g. 127.0.0.1:6060); disabled when empty")
	validateCluster := registerClusterFlags(flag.CommandLine, &opts)
	flag.Parse()

	// Deterministic fault injection for crash drills: PERFTAINT_FAULTS
	// holds a seeded schedule (see internal/faultinject); empty means none.
	if err := faultinject.InstallFromEnv(os.Getenv(faultinject.EnvVar)); err != nil {
		log.Fatal(err)
	}

	// Opt-in profiling sidecar: the analysis endpoints stay on their own
	// mux, so the debug surface is never exposed on the service address.
	// Hot-path work should start from `go tool pprof
	// http://<pprof-addr>/debug/pprof/profile`, not from a guess.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof debug listener on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}

	if err := validateCluster(); err != nil {
		log.Fatal(err)
	}
	srv, err := service.NewServer(opts)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ready := make(chan string, 1)
	go func() { log.Printf("listening on %s", <-ready) }()
	if err := srv.ListenAndServe(ctx, *addr, ready); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}
