// modeling runs the end-to-end model-extraction pipeline on LULESH —
// the paper's actual deliverable: taint run, streamed measurement
// sweep, incremental fitting, and a rendered per-function model report
// with clean-vs-tainted parameter attribution.
//
// The design lives in lulesh.json next to this file (the same config
// `perftaint model -config` consumes); the Markdown report goes to
// stdout or -md, the self-contained HTML version to -html.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	cfgPath := flag.String("config", defaultConfig(), "modeling config JSON")
	mdOut := flag.String("md", "", "write the Markdown report here instead of stdout")
	htmlOut := flag.String("html", "", "also write a self-contained HTML report")
	flag.Parse()

	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	var cfg modelreg.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		log.Fatalf("parse %s: %v", *cfgPath, err)
	}
	app, ok := service.BundledApps()[cfg.App]
	if !ok {
		log.Fatalf("unknown app %q", cfg.App)
	}
	// The shared overlay keeps this example's design digest identical to
	// what `perftaint model` and the daemon compute for the same config.
	cfg = service.ResolveModelDefaults(app, cfg)

	prep, err := core.Prepare(app.New())
	if err != nil {
		log.Fatal(err)
	}
	ms, err := modelreg.Extract(context.Background(), runner.New(), prep, cfg,
		func(ev modelreg.Event) {
			switch ev.Type {
			case "taint":
				log.Printf("taint: %d/%d functions relevant, %d design points ahead",
					ev.Relevant, ev.Functions, ev.Total)
			case "point":
				log.Printf("point %d/%d (%d instructions)", ev.Points, ev.Total, ev.Instructions)
			case "refit":
				log.Printf("refit at %d/%d points: %d datasets fittable", ev.Points, ev.Total, ev.Fitted)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	md := modelreg.RenderMarkdown(ms)
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote Markdown report to %s", *mdOut)
	} else {
		fmt.Print(md)
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(modelreg.RenderHTML(ms)), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote HTML report to %s", *htmlOut)
	}
}

// defaultConfig finds lulesh.json next to this program so the example
// runs from any working directory (`go run ./examples/modeling`).
func defaultConfig() string {
	if _, err := os.Stat("lulesh.json"); err == nil {
		return "lulesh.json"
	}
	return filepath.Join("examples", "modeling", "lulesh.json")
}
