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
// configuration and checks the result against the spec's parameter
// rules — the exact merge+check the daemon applies to an /v1/analyze
// request, exported so `perftaint analyze` without -addr produces the
// same configuration (and the same rejections) as the remote path.
func MergedTaintConfig(app App, overrides apps.Config) (apps.Config, error) {
	cfg := mergedConfig(app, overrides)
	if err := app.New().CheckConfig(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// checkCensusParams rejects census parameter names the census would
// silently ignore.
func checkCensusParams(spec *apps.Spec, names []string) error {
	for _, name := range names {
		if !spec.HasParam(name) {
			return fmt.Errorf("census_params: unknown parameter %q (spec has %v plus the implicit p)",
				name, spec.Params)
		}
	}
	return nil
}
