package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/runner"
	"repro/internal/service"
)

func TestParseConfig(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want apps.Config
		bad  bool
	}{
		{in: "", want: nil},
		{in: "p=16", want: apps.Config{"p": 16}},
		{in: "p=16, size=5.5", want: apps.Config{"p": 16, "size": 5.5}},
		{in: "p=1e3", want: apps.Config{"p": 1000}},
		{in: "p", bad: true},
		{in: "p=sixteen", bad: true},
		{in: "p=16,", bad: true},
		{in: "p=1;size=2", bad: true},
	} {
		got, err := parseConfig(tc.in)
		if (err != nil) != tc.bad {
			t.Errorf("parseConfig(%q) error = %v, want error: %v", tc.in, err, tc.bad)
			continue
		}
		if !tc.bad && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseConfig(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseAxes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []runner.Axis
		bad  bool
	}{
		{in: "p=2,4,8", want: []runner.Axis{{Param: "p", Values: []float64{2, 4, 8}}}},
		{in: "p=2, 4 ; size=4,5", want: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{4, 5}},
		}},
		{in: "", bad: true},
		{in: "p", bad: true},
		{in: "p=", bad: true},
		{in: "p=2,x", bad: true},
		{in: "p=2;", bad: true},
	} {
		got, err := parseAxes(tc.in)
		if (err != nil) != tc.bad {
			t.Errorf("parseAxes(%q) error = %v, want error: %v", tc.in, err, tc.bad)
			continue
		}
		if !tc.bad && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseAxes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestFitGolden pins `perftaint fit` on the committed measurement file;
// the golden is what cmd/extrap printed for it before it moved here.
func TestFitGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/fit_input.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fit_output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := fit(&got, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fit output drifted from testdata/fit_output.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if err := fit(&got, []byte(`{"params": [`)); err == nil {
		t.Error("fit accepted a truncated measurement file")
	}
}

// TestModelMinimalConfigLocalAndRemote pins the documented minimal
// config: with "params" omitted it defaults to the axis parameters in
// axis order, in process and through a daemon alike, so `perftaint model`
// and `perftaint model -addr` address one registry entry.
func TestModelMinimalConfigLocalAndRemote(t *testing.T) {
	cfg, err := loadModelConfig("testdata/model_minimal.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params != nil {
		t.Fatalf("fixture spells params %v; the point is to omit them", cfg.Params)
	}
	srv, err := service.NewServer(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()

	local, _, err := extractModel(cfg, "", 1, 0, nil)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	remote, _, err := extractModel(cfg, hs.URL, 1, 0, nil)
	if err != nil {
		t.Fatalf("-addr: %v", err)
	}
	if want := []string{"p", "size"}; !reflect.DeepEqual(local.Params, want) || !reflect.DeepEqual(remote.Params, want) {
		t.Errorf("params defaulted to %v locally and %v remotely, want %v", local.Params, remote.Params, want)
	}
	if local.Key != remote.Key {
		t.Errorf("local key %s, -addr key %s", local.Key, remote.Key)
	}
}
