package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/extrap"
)

// fitInput is the measurement file `perftaint fit` reads.
type fitInput struct {
	Params []string `json:"params"`
	Points []struct {
		Params map[string]float64 `json:"params"`
		Values []float64          `json:"values"`
	} `json:"points"`
	Allowed       []string `json:"allowed"`
	ForceConstant bool     `json:"force_constant"`
}

// runFit fits one PMNF model to a JSON measurement file (-in, default
// stdin) and prints it with its error measures.
func runFit(args []string) {
	fs := flag.NewFlagSet("perftaint fit", flag.ExitOnError)
	path := fs.String("in", "", "JSON measurement file (default stdin)")
	fs.Parse(args)
	raw, err := readInput(*path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fit(os.Stdout, raw); err != nil {
		log.Fatal(err)
	}
}

// fit models the measurements in raw and writes the report lines to w.
func fit(w io.Writer, raw []byte) error {
	var in fitInput
	if err := json.Unmarshal(raw, &in); err != nil {
		return err
	}
	d := extrap.NewDataset(in.Params...)
	for _, pt := range in.Points {
		d.Add(pt.Params, pt.Values...)
	}
	var prior *extrap.Prior
	if in.ForceConstant {
		prior = &extrap.Prior{ForceConstant: true}
	} else if len(in.Allowed) > 0 {
		allowed := make(map[string]bool, len(in.Allowed))
		for _, p := range in.Allowed {
			allowed[p] = true
		}
		prior = &extrap.Prior{Allowed: allowed}
	}

	m, err := extrap.ModelMulti(d, extrap.DefaultOptions(), prior)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model:  %s\n", m)
	fmt.Fprintf(w, "smape:  %.4f\n", m.SMAPE)
	fmt.Fprintf(w, "cv:     %.4f\n", m.CV)
	fmt.Fprintf(w, "params: %v\n", m.Params())
	if !d.Reliable() {
		fmt.Fprintf(w, "warning: max CoV %.3f exceeds the %.1f noise cutoff\n",
			d.MaxCoV(), extrap.NoiseCutoff)
	}
	return nil
}
