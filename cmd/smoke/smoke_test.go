package main

import (
	"strings"
	"testing"
)

func TestRequireMetric(t *testing.T) {
	const exposition = `# TYPE perftaintd_journal_replays_total counter
perftaintd_journal_replays_total 2
perftaintd_cache_disk_hits_total{cache="models"} 1
perftaintd_journal_replays_total_extra 0
perftaintd_uptime_seconds 1.5.2
`
	positive := func(v float64) bool { return v > 0 }
	for _, tc := range []struct {
		what, name string
		ok         func(float64) bool
		wantErr    string // "" = the gate holds
	}{
		{"unlabelled sample", "perftaintd_journal_replays_total", func(v float64) bool { return v == 2 }, ""},
		{"unlabelled sample failing its gate", "perftaintd_journal_replays_total", func(v float64) bool { return v > 2 }, "violates"},
		{"labelled family by bare name", "perftaintd_cache_disk_hits_total", positive, ""},
		{"labelled family by exposed label set", `perftaintd_cache_disk_hits_total{cache="models"}`, positive, ""},
		{"label set not exposed", `perftaintd_cache_disk_hits_total{cache="prepared"}`, positive, "missing"},
		{"missing family", "perftaintd_journal_open_jobs", positive, "missing"},
		{"longer name sharing the prefix is another family", "perftaintd_journal_replays_total_ext", positive, "missing"},
		{"unparseable value", "perftaintd_uptime_seconds", positive, "unparseable"},
	} {
		err := requireMetric(exposition, tc.name, tc.ok)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: requireMetric(%s) = %v, want error containing %q", tc.what, tc.name, err, tc.wantErr)
		}
	}
}
