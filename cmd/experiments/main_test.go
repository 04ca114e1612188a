package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the current implementation")

// TestReportGolden regenerates the full report and requires the committed
// bytes: every table is deterministic (seeded noise, ordered sums), so a
// diff is either an intended change — rerun with -update and review it —
// or a finding.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if !bytes.Equal(g, e) {
			t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, e)
		}
	}
}
