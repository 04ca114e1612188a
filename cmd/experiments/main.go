// Command experiments regenerates every table and figure of the paper's
// evaluation and writes the paper-vs-measured comparison to stdout (and,
// with -o, to a Markdown file such as EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	out := flag.String("o", "", "write the report to this file in addition to stdout")
	only := flag.String("only", "", "run a single experiment: table2,table3,fig3,fig4,a2,a3,b1,b2,c1,c2")
	workers := flag.Int("workers", 0, "bound analysis/fitting concurrency (0 = all cores)")
	flag.Parse()

	var sb strings.Builder
	if err := run(&sb, *only, *workers); err != nil {
		log.Fatal(err)
	}
	fmt.Print(sb.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
}

// run regenerates the report — every experiment, or only the named one —
// with at most workers concurrent analyses and fits (0 = all cores), and
// writes it to w once it is complete: a failing experiment writes nothing.
func run(w io.Writer, only string, workers int) error {
	ctx, err := experiments.NewContextWorkers(workers)
	if err != nil {
		return err
	}

	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	sb.WriteString("Regenerated by `go run ./cmd/experiments`. Absolute numbers come from\n")
	sb.WriteString("the simulated substrate (see ARCHITECTURE.md); the comparisons target the\n")
	sb.WriteString("paper's qualitative shapes: who wins, by what factor, where behaviour\n")
	sb.WriteString("changes.\n\n")

	want := func(name string) bool { return only == "" || only == name }

	if want("table2") {
		sb.WriteString(experiments.Table2(ctx).String() + "\n")
	}
	if want("table3") {
		for _, r := range experiments.Table3(ctx) {
			sb.WriteString(r.String() + "\n")
		}
	}
	if want("fig3") {
		r, err := experiments.Figure3(ctx)
		if err != nil {
			return err
		}
		sb.WriteString(r.String() + "\n")
	}
	if want("fig4") {
		r, err := experiments.Figure4(ctx)
		if err != nil {
			return err
		}
		sb.WriteString(r.String() + "\n")
	}
	if want("a2") {
		for _, r := range experiments.DesignReduction(ctx) {
			sb.WriteString(r.String() + "\n")
		}
	}
	if want("a3") {
		rs, err := experiments.CoreHourCosts(ctx)
		if err != nil {
			return err
		}
		for _, r := range rs {
			sb.WriteString(r.String() + "\n")
		}
	}
	if want("b1") {
		rs, err := experiments.NoiseResilienceAll(ctx)
		if err != nil {
			return err
		}
		for _, r := range rs {
			sb.WriteString(r.String() + "\n")
		}
	}
	if want("b2") {
		r, err := experiments.Intrusion(ctx)
		if err != nil {
			return err
		}
		sb.WriteString(r.String() + "\n")
	}
	if want("c1") {
		r, err := experiments.Contention(ctx)
		if err != nil {
			return err
		}
		sb.WriteString(r.String() + "\n")
	}
	if want("c2") {
		r, err := experiments.Validation(ctx)
		if err != nil {
			return err
		}
		sb.WriteString(r.String() + "\n")
	}

	_, err = io.WriteString(w, sb.String())
	return err
}
