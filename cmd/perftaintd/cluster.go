package main

import (
	"flag"
	"fmt"

	"repro/internal/service"
)

// registerClusterFlags binds the cluster role and tuning flags on fs
// straight into opts and returns the check to run after fs.Parse. Zero
// values mean "leave the server default alone", so a daemon started
// without any cluster flags behaves exactly like a standalone one.
func registerClusterFlags(fs *flag.FlagSet, opts *service.Options) (validate func() error) {
	fs.BoolVar(&opts.Coordinator, "coordinator", false,
		"run as the cluster coordinator: shard sweeps and model extractions across registered workers")
	worker := fs.Bool("worker", false,
		"run as a cluster worker (requires -join URL of the coordinator)")
	fs.StringVar(&opts.JoinURL, "join", "",
		"coordinator base URL to register with and heartbeat (implies -worker)")
	fs.StringVar(&opts.AdvertiseURL, "advertise", "",
		"base URL the coordinator should dial this worker back on (empty derives it from the bound listen address)")
	fs.DurationVar(&opts.ShardTimeout, "shard-timeout", 0,
		"deadline for one shard dispatch round-trip (0 = 2m)")
	fs.DurationVar(&opts.HeartbeatInterval, "heartbeat-interval", 0,
		"worker heartbeat and coordinator liveness-reaper period (0 = 1s)")
	fs.DurationVar(&opts.HeartbeatTimeout, "heartbeat-timeout", 0,
		"silence after which the coordinator benches a worker (0 = 4x heartbeat-interval)")
	// A daemon is standalone, a coordinator, or a worker — never two at once.
	return func() error {
		isWorker := *worker || opts.JoinURL != ""
		if opts.Coordinator && isWorker {
			return fmt.Errorf("-coordinator and -worker/-join are mutually exclusive: a daemon has one cluster role")
		}
		if *worker && opts.JoinURL == "" {
			return fmt.Errorf("-worker requires -join URL (the coordinator to register with)")
		}
		if opts.AdvertiseURL != "" && !isWorker {
			return fmt.Errorf("-advertise only applies to workers (add -join URL)")
		}
		return nil
	}
}
