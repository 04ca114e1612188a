package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// parse runs the cluster flags over args into fresh Options and
// validates the combination.
func parse(t *testing.T, args ...string) (service.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var opts service.Options
	validate := registerClusterFlags(fs, &opts)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return opts, validate()
}

func TestClusterFlagsRoles(t *testing.T) {
	if opts, err := parse(t, "-coordinator"); err != nil || !opts.Coordinator {
		t.Fatalf("coordinator: opts=%+v err=%v", opts, err)
	}
	if opts, err := parse(t, "-worker", "-join", "http://c:7070"); err != nil || opts.JoinURL != "http://c:7070" {
		t.Fatalf("worker: opts=%+v err=%v", opts, err)
	}
	// -join alone implies -worker.
	if opts, err := parse(t, "-join", "http://c:7070"); err != nil || opts.JoinURL != "http://c:7070" {
		t.Fatalf("bare -join: opts=%+v err=%v", opts, err)
	}
	if opts, err := parse(t); err != nil || !reflect.DeepEqual(opts, service.Options{}) {
		t.Fatalf("no flags must leave Options zero: opts=%+v err=%v", opts, err)
	}
}

func TestClusterFlagsRejectsBadCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-coordinator", "-worker", "-join", "http://c"}, "mutually exclusive"},
		{[]string{"-coordinator", "-join", "http://c"}, "mutually exclusive"},
		{[]string{"-worker"}, "requires -join"},
		{[]string{"-advertise", "http://w"}, "only applies to workers"},
		{[]string{"-coordinator", "-advertise", "http://w"}, "only applies to workers"},
	} {
		if _, err := parse(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

func TestClusterFlagsTuning(t *testing.T) {
	opts, err := parse(t, "-coordinator",
		"-shard-timeout", "30s",
		"-heartbeat-interval", "2s", "-heartbeat-timeout", "9s")
	if err != nil {
		t.Fatal(err)
	}
	if opts.ShardTimeout != 30*time.Second ||
		opts.HeartbeatInterval != 2*time.Second || opts.HeartbeatTimeout != 9*time.Second {
		t.Fatalf("tuning flags did not land in Options: %+v", opts)
	}
}
