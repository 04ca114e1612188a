package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// designDoorsCap is the MaxSweepConfigs of the daemon under
// TestDesignDoorsAgree and the cap handed to runner.Design.Check.
const designDoorsCap = 8

// bareApp is LULESH with a taint configuration that forgets "iters", so a
// request can reach the doors with a spec parameter nobody provides.
func bareApp() App {
	return App{New: apps.LULESH, TaintConfig: func() apps.Config {
		cfg := apps.LULESHTaintConfig()
		delete(cfg, "iters")
		return cfg
	}}
}

// wide is an axis of n identical values: what an oversized request costs
// its sender is bytes, not distinct numbers.
func wide(param string, n int) runner.Axis {
	ax := runner.Axis{Param: param, Values: make([]float64, n)}
	for i := range ax.Values {
		ax.Values[i] = 2
	}
	return ax
}

// TestDesignDoorsAgree drives one table of designs through every door a
// design can enter by — runner.Design.Check, modelreg.NewPipeline,
// POST /v1/sweep and POST /v1/models — and requires one verdict: the same
// message from Check and both endpoints (which answer 400), and from the
// in-process pipeline wherever the verdict does not hang on the daemon's
// own cap. The 4 x 60,000 request is the one that used to overflow the
// size product on /v1/models, panic inside the registry build and wedge
// its key; afterwards the daemon must still answer, and must close.
func TestDesignDoorsAgree(t *testing.T) {
	ax := func(param string, values ...float64) runner.Axis { return runner.Axis{Param: param, Values: values} }
	capMsg := "design exceeds the cap of 8 configs"
	cases := []struct {
		name     string
		app      string // "" = lulesh
		defaults apps.Config
		axes     []runner.Axis
		want     string // error message at the capped doors; "" = legal
		// inProcess overrides want for modelreg.NewPipeline, whose cap is
		// runner.MaxPoints: "legal" or a message prefix.
		inProcess string
		points    int
	}{
		{name: "no axes", want: "design has no axes"},
		{name: "empty axis", axes: []runner.Axis{ax("p", 2, 4), ax("size")}, want: `axis "size" has no values`},
		{name: "repeated axis", axes: []runner.Axis{ax("p", 2), ax("p", 4)}, want: `axis "p" repeated`},
		{name: "unknown axis parameter", axes: []runner.Axis{ax("sze", 4, 5)},
			want: `unknown parameter "sze" (spec has [size regions balance cost iters] plus the implicit p)`},
		{name: "unknown default", defaults: apps.Config{"typo": 1}, axes: []runner.Axis{ax("p", 2, 4)},
			want: `unknown parameter "typo" (spec has [size regions balance cost iters] plus the implicit p)`},
		{name: "missing spec parameter", app: "bare", axes: []runner.Axis{ax("p", 2, 4)},
			want: `config missing spec parameter "iters"`},
		{name: "fractional p", axes: []runner.Axis{ax("p", 2, 0.5, 4)},
			want: "config requires the implicit MPI parameter p >= 1"},
		{name: "one past the cap", axes: []runner.Axis{ax("p", 2, 4, 8), ax("size", 4, 5, 6)},
			want: capMsg, inProcess: "legal", points: 9},
		{name: "overflowing product", axes: []runner.Axis{wide("p", 60_000), wide("size", 60_000),
			wide("regions", 60_000), wide("balance", 60_000)},
			want: capMsg, inProcess: "design exceeds the cap of "},
		{name: "every parameter swept once", axes: []runner.Axis{ax("p", 2), ax("size", 4), ax("regions", 4),
			ax("balance", 2), ax("cost", 1), ax("iters", 2)}, points: 1},
	}

	var serverLog bytes.Buffer
	srv, err := NewServer(Options{Workers: 1, MaxSweepConfigs: designDoorsCap,
		Apps: map[string]App{"bare": bareApp()}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ErrorLog = log.New(&serverLog, "", 0)
	hs.Start()
	client := NewClient(hs.URL)
	ctx := context.Background()

	// post returns the status and, for an error answer, its message.
	post := func(path string, body any) (int, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, ""
		}
		var eb api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: undecodable %d answer: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode, eb.Error
	}

	registry := BundledApps()
	registry["bare"] = bareApp()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := tc.app
			if name == "" {
				name = "lulesh"
			}
			app := registry[name]
			prep, err := core.Prepare(app.New())
			if err != nil {
				t.Fatal(err)
			}
			merged := mergedConfig(app, tc.defaults)

			grid := runner.Design{Spec: prep.Spec, Defaults: merged, Axes: tc.axes}
			n, err := grid.Check(designDoorsCap)
			if msg := errString(err); msg != tc.want {
				t.Fatalf("Check: %q, want %q", msg, tc.want)
			}
			if err == nil && (n != tc.points || len(grid.Configs()) != tc.points) {
				t.Fatalf("Check sized the design at %d and Configs expanded %d, want %d", n, len(grid.Configs()), tc.points)
			}

			pl, err := modelreg.NewPipeline(prep, modelreg.Config{Defaults: merged, Axes: tc.axes}, 1, nil)
			switch msg := errString(err); {
			case tc.inProcess == "legal" || tc.want == "":
				if err != nil || len(pl.Configs()) != tc.points {
					t.Errorf("NewPipeline: err %v, want a %d-point pipeline", err, tc.points)
				}
			case tc.inProcess != "":
				if !strings.HasPrefix(msg, tc.inProcess) {
					t.Errorf("NewPipeline: %q, want %q...", msg, tc.inProcess)
				}
			case msg != tc.want:
				t.Errorf("NewPipeline: %q, want %q", msg, tc.want)
			}

			wantStatus := http.StatusOK
			if tc.want != "" {
				wantStatus = http.StatusBadRequest
			}
			for _, door := range []struct {
				path string
				body any
			}{
				{"/v1/sweep", api.SweepRequest{App: name, Defaults: tc.defaults, Axes: tc.axes}},
				{"/v1/models", api.ModelRequest{App: name, Defaults: tc.defaults, Axes: tc.axes, Reps: 2}},
			} {
				started := time.Now()
				if status, msg := post(door.path, door.body); status != wantStatus || msg != tc.want {
					t.Errorf("POST %s: %d %q, want %d %q", door.path, status, msg, wantStatus, tc.want)
				}
				// A refused design is refused at the door: a second identical
				// request finds no half-built flight to wait behind.
				if tc.want != "" {
					if status, _ := post(door.path, door.body); status != wantStatus {
						t.Errorf("POST %s again: %d, want %d", door.path, status, wantStatus)
					}
					if d := time.Since(started); d > 10*time.Second {
						t.Errorf("POST %s twice took %v", door.path, d)
					}
				}
			}
		})
	}

	// The daemon took all of that in stride.
	if err := client.Health(ctx); err != nil {
		t.Errorf("healthz after the table: %v", err)
	}
	if resp, err := client.Models(ctx, modelTestRequest()); err != nil || resp.ModelSet.Points != 4 {
		t.Errorf("ordinary extraction after the table: %+v, %v", resp, err)
	}
	closed := make(chan struct{})
	go func() { hs.Close(); srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("the daemon did not close: a request is still parked in it")
	}
	if strings.Contains(serverLog.String(), "panic") {
		t.Errorf("a handler goroutine panicked:\n%s", serverLog.String())
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestModelsParamsDefaultToAxes pins the documented minimal request: with
// "params" omitted the model parameters are the axis parameters in axis
// order, under the same registry key as the request that spells them out.
func TestModelsParamsDefaultToAxes(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()
	spelled := modelTestRequest()
	omitted := modelTestRequest()
	omitted.Params = nil
	first, err := client.Models(ctx, omitted)
	if err != nil {
		t.Fatalf("request without params: %v", err)
	}
	if got := first.ModelSet.Params; len(got) != 2 || got[0] != "p" || got[1] != "size" {
		t.Fatalf("params defaulted to %v, want [p size]", got)
	}
	second, err := client.Models(ctx, spelled)
	if err != nil {
		t.Fatal(err)
	}
	if second.Key != first.Key || !second.Cached {
		t.Fatalf("spelled-out params: key %s cached=%v, want the registry hit under %s", second.Key, second.Cached, first.Key)
	}
}

// TestContentAddressesArePinned holds the registry key and the sweep
// journal key of the suite's fixtures at the values earlier releases
// computed: a journal or a model store written before an upgrade must
// still be found after it. Moving either is a deliberate act (bump
// modelreg's designDigestVersion, or accept that journals restart).
func TestContentAddressesArePinned(t *testing.T) {
	app := BundledApps()["lulesh"]
	spec := app.New()
	digest := core.SpecDigest(spec)
	cfg, err := modelConfig(modelTestRequest(), app).Resolve(spec, runner.MaxPoints)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Key(digest), "4e81297d83736a07b71db0213c0584a185189580542f93cb7e3b12f4fab96383"; got != want {
		t.Errorf("registry key of modelTestRequest = %s, want %s", got, want)
	}
	req := resilienceSweepReq()
	grid := runner.Design{Spec: spec, Defaults: mergedConfig(app, req.Defaults), Axes: req.Axes}
	got := sweepJournalKey(req.App, digest, grid.Configs(), censusParams(req.CensusParams), "")
	if want := "c14175920376b0991476012c086cf1b34a1c82df0e17efe30ebe9beb55159c5f"; got != want {
		t.Errorf("journal key of resilienceSweepReq = %s, want %s", got, want)
	}
}
