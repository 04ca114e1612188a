package service

import (
	"fmt"

	"repro/internal/apps"
)

// App is one analyzable application registered with the daemon: a spec
// constructor plus the default (taint-run) configuration that request
// configs are overlaid on.
type App struct {
	New         func() *apps.Spec
	TaintConfig func() apps.Config
}

// BundledApps returns the registry the daemon serves out of the box: the
// paper's two evaluation applications keyed by the names the HTTP API
// accepts in the "app" field.
func BundledApps() map[string]App {
	return map[string]App{
		"lulesh": {New: apps.LULESH, TaintConfig: apps.LULESHTaintConfig},
		"milc":   {New: apps.MILC, TaintConfig: apps.MILCTaintConfig},
	}
}

// mergedConfig overlays overrides on the app's default taint config.
func mergedConfig(app App, overrides apps.Config) apps.Config {
	cfg := app.TaintConfig().Clone()
	for k, v := range overrides {
		cfg[k] = v
	}
	return cfg
}

// MergedTaintConfig overlays overrides on the app's default taint
// configuration and validates both the override names and the merged
// result — the exact merge+check the daemon applies to an /v1/analyze
// request, exported so `perftaint analyze` without -addr produces the
// same configuration (and the same rejections) as the remote path.
func MergedTaintConfig(app App, overrides apps.Config) (apps.Config, error) {
	spec := app.New()
	if err := validateParamNames(spec, configKeys(overrides)); err != nil {
		return nil, err
	}
	cfg := mergedConfig(app, overrides)
	if err := validateConfig(spec, cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validateConfig rejects configurations the pipeline would choke on with
// a client-attributable error instead of a mid-job failure.
func validateConfig(spec *apps.Spec, cfg apps.Config) error {
	// The pipeline truncates p to an integer rank count, so anything
	// below 1 (including fractional values in (0,1)) would fail mid-job
	// with a misleading "missing p" — reject it here instead.
	if cfg["p"] < 1 {
		return fmt.Errorf("config requires the implicit MPI parameter p >= 1")
	}
	for _, prm := range spec.Params {
		if _, ok := cfg[prm]; !ok {
			return fmt.Errorf("config missing spec parameter %q", prm)
		}
	}
	return nil
}

// knownParam reports whether name is a spec parameter or the implicit p.
func knownParam(spec *apps.Spec, name string) bool {
	if name == "p" {
		return true
	}
	for _, prm := range spec.Params {
		if prm == name {
			return true
		}
	}
	return false
}

// validateParamNames rejects override/axis names the analysis would
// silently ignore — a typo'd parameter must fail loudly, not return a
// plausible result that never varied anything.
func validateParamNames(spec *apps.Spec, names []string) error {
	for _, name := range names {
		if !knownParam(spec, name) {
			return fmt.Errorf("unknown parameter %q (spec has %v plus the implicit p)",
				name, spec.Params)
		}
	}
	return nil
}

func configKeys(cfg apps.Config) []string {
	out := make([]string, 0, len(cfg))
	for k := range cfg {
		out = append(out, k)
	}
	return out
}
