package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/interp"
	"repro/internal/libdb"
	"repro/internal/measure"
	"repro/internal/modelreg"
	"repro/internal/noise"
	"repro/internal/runner"
	"repro/internal/taint"
)

// extraction is one "request → ranked model set" input: the unit every
// workload's op is made of, in process or behind a daemon.
type extraction struct {
	spec *apps.Spec
	// prep is the memory-warm prepared spec; nil makes the op pay a cold
	// core.Prepare, as corpus-small does.
	prep *core.Prepared
	cfg  modelreg.Config
}

// explicit fills the fields modelreg would default, with modelreg's
// documented defaults, so the benchmark can rebuild the pipeline's
// datasets and noise streams from outside without guessing.
func explicit(c modelreg.Config) modelreg.Config {
	if len(c.Params) == 0 {
		for _, ax := range c.Axes {
			c.Params = append(c.Params, ax.Param)
		}
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RelNoise == 0 {
		c.RelNoise = 0.02
	}
	if c.Batch == 0 {
		c.Batch = 5
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []string{modelreg.MetricSeconds, modelreg.MetricIterations}
	}
	return c
}

// extract is the undecomposed op: cold prepare when asked, then
// modelreg.Extract on workers analysis goroutines.
func (x extraction) extract(ctx context.Context, workers int) (*modelreg.ModelSet, error) {
	prep := x.prep
	if prep == nil {
		var err error
		if prep, err = core.Prepare(x.spec); err != nil {
			return nil, err
		}
	}
	return modelreg.Extract(ctx, &runner.Runner{Workers: workers}, prep, x.cfg, nil)
}

// bareRun times interp's Machine.Run alone, set up exactly as
// core.Prepared.Analyze sets it up (or with no taint engine at all).
func bareRun(p *core.Prepared, cfg apps.Config, tainted bool) (time.Duration, int64, error) {
	var eng *taint.Engine
	var labels []taint.Label
	mach := interp.NewMachine(p.Module)
	mach.Fuel = 4_000_000_000
	mach.Mode = p.Mode
	mach.Prog = p.Program
	if tainted {
		eng = taint.NewEngine()
		mach.Taint = eng
		labels = make([]taint.Label, len(p.Spec.Params))
		for i, prm := range p.Spec.Params {
			labels[i] = eng.Table.Base(prm)
		}
	}
	p.DB.Bind(mach, eng, libdb.RunConfig{CommSize: int64(cfg["p"]), Rank: 0})
	args := apps.TaintArgs(p.Spec, cfg)
	t := time.Now()
	res, err := mach.Run("main", args, labels)
	d := time.Since(t)
	if err != nil {
		return 0, 0, fmt.Errorf("bare run at %v: %w", cfg, err)
	}
	return d, res.Instructions, nil
}

// layers is what one decomposed op measured. Durations are whole-op sums
// unless named otherwise.
type layers struct {
	points int

	parallelWall time.Duration // undecomposed op on 2 workers, GOMAXPROCS 2
	serialWall   time.Duration // undecomposed op on 1 worker, GOMAXPROCS 1
	sweepOne     time.Duration // runner.SweepFitCtx alone, 1 worker
	tracedWall   time.Duration // the decomposed op's root span
	layerSelf    time.Duration // self time of every span below the root

	newPipeline time.Duration
	analyze     time.Duration // the design points' Analyze calls
	analyzeEach []time.Duration
	consume     time.Duration // ConsumeSample, minus the refits inside it
	refit       time.Duration
	finish      time.Duration

	tainted       time.Duration // bare Machine.Run: design points + taint run
	taintedPoints time.Duration // bare Machine.Run: design points only
	untainted     time.Duration // the same runs with no taint engine
	instr         int64
	instrClean    int64
	measure       time.Duration // cluster.Runner.Measure over the design
	fitHybrid     time.Duration
	fitBlackBox   time.Duration
	finishFits    int // hybrid + black-box requests of Finish
	refitFits     int

	set *modelreg.ModelSet
}

// serially runs f on one processor, so that the pipelining inside
// runner.SweepFitCtx (analysis of point i+1 overlapping the consumer of
// point i) and the concurrent collector cannot hide work: wall-clock is
// the sum of the work, for the undecomposed reference and the
// decomposed op alike.
func serially(f func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// decompose runs one op three ways — undecomposed on 2 workers,
// undecomposed serially, and decomposed serially into the public calls
// of each layer with a span around each. Then, off the op's clock, it
// times the calls that happen inside those public calls (Machine.Run
// inside Analyze, Measure inside ConsumeSample, FitAll inside Finish)
// and files them as child spans.
func decompose(ctx context.Context, rec *recorder, op int, x extraction) (*layers, error) {
	x.cfg = explicit(x.cfg)
	L := &layers{}

	t := time.Now()
	if _, err := x.extract(ctx, 2); err != nil {
		return nil, err
	}
	L.parallelWall = time.Since(t)

	err := serially(func() error {
		t := time.Now()
		if _, err := x.extract(ctx, 1); err != nil {
			return err
		}
		L.serialWall = time.Since(t)
		return L.decomposed(ctx, rec, op, x)
	})
	return L, err
}

func (L *layers) decomposed(ctx context.Context, rec *recorder, op int, x extraction) error {
	root := rec.begin(op, -1, rootName)
	prep := x.prep
	prepSpan := -1
	if prep == nil {
		prepSpan = rec.begin(op, root, "core.prepare")
		var err error
		prep, err = core.Prepare(x.spec)
		rec.end(prepSpan)
		if err != nil {
			return err
		}
	}

	// A refit runs inside ConsumeSample, between its "point" and "refit"
	// events; those two timestamps are its span.
	consumeSpan, pointAt := -1, int64(0)
	onEvent := func(ev modelreg.Event) {
		switch ev.Type {
		case "point":
			pointAt = rec.now()
		case "refit":
			now := rec.now()
			rec.add(consumeSpan, "modelreg.refit", pointAt, now)
			L.refit += time.Duration(now - pointAt)
			L.refitFits += ev.Fitted + ev.Failed
		}
	}

	npSpan := rec.begin(op, root, "modelreg.newpipeline")
	pl, err := modelreg.NewPipeline(prep, x.cfg, 1, onEvent)
	rec.end(npSpan)
	if err != nil {
		return err
	}
	L.newPipeline = rec.duration(npSpan)

	cfgs := pl.Configs()
	L.points = len(cfgs)
	analyzeSpans := make([]int, len(cfgs))
	consumeSpans := make([]int, len(cfgs))
	samples := make([]modelreg.Sample, len(cfgs))
	instr := make([]int64, len(cfgs)) // what each point's Analyze reported
	for i, c := range cfgs {
		analyzeSpans[i] = rec.begin(op, root, "core.analyze")
		rep, err := prep.Analyze(c)
		rec.end(analyzeSpans[i])
		consumeSpan = rec.begin(op, root, "modelreg.consume")
		consumeSpans[i] = consumeSpan
		smp, serr := modelreg.ResultSample(runner.Result{Index: i, Config: c, Report: rep, Err: err})
		if serr == nil {
			serr = pl.ConsumeSample(smp)
		}
		rec.end(consumeSpan)
		if serr != nil {
			return serr
		}
		samples[i] = smp
		instr[i] = rep.Instructions
		d := rec.duration(analyzeSpans[i])
		L.analyze += d
		L.analyzeEach = append(L.analyzeEach, d)
		L.consume += rec.duration(consumeSpan)
	}
	L.consume -= L.refit

	finSpan := rec.begin(op, root, "modelreg.finish")
	L.set, err = pl.Finish()
	rec.end(finSpan)
	if err != nil {
		return err
	}
	L.finish = rec.duration(finSpan)
	rec.end(root)
	L.tracedWall = rec.duration(root)

	// Off the clock from here on.
	t := time.Now()
	err = (&runner.Runner{Workers: 1}).SweepFitCtx(ctx, prep, cfgs, func(runner.Result) error { return nil })
	L.sweepOne = time.Since(t)
	if err != nil {
		return err
	}

	if prepSpan >= 0 {
		t = time.Now()
		interp.Predecode(prep.Module)
		rec.child(prepSpan, "interp.predecode", time.Since(t))
	}

	// The pipeline's own taint run at the smallest design point.
	base := appgen.BaseConfig(x.cfg)
	t = time.Now()
	taintRep, err := prep.Analyze(base)
	if err != nil {
		return err
	}
	taintSpan := rec.child(npSpan, "core.analyze", time.Since(t))
	if err := L.bare(rec, prep, base, taintSpan, false, taintRep.Instructions); err != nil {
		return err
	}
	for i, c := range cfgs {
		if err := L.bare(rec, prep, c, analyzeSpans[i], true, instr[i]); err != nil {
			return err
		}
	}

	// Rebuild the pipeline's datasets from the same samples, timing the
	// measurement synthesis per point on the way.
	instrumented := measure.Select(prep.Spec, measure.FilterTaint, taintRep.Relevant)
	clus := cluster.NewRunner(prep.Spec)
	type key struct{ fn, metric string }
	data := make(map[key]*extrap.Dataset)
	var order []key
	dataset := func(fn, metric string) *extrap.Dataset {
		k := key{fn, metric}
		if data[k] == nil {
			data[k] = extrap.NewDataset(x.cfg.Params...)
			order = append(order, k)
		}
		return data[k]
	}
	for i, smp := range samples {
		pv := make(map[string]float64, len(x.cfg.Params))
		for _, prm := range x.cfg.Params {
			pv[prm] = smp.Config[prm]
		}
		for _, metric := range x.cfg.Metrics {
			switch metric {
			case modelreg.MetricIterations:
				for fn := range taintRep.Relevant {
					dataset(fn, metric).Add(pv, float64(smp.Iterations[fn]))
				}
			case modelreg.MetricSeconds:
				src := noise.New(x.cfg.Seed+int64(smp.Index+1)*1_000_003, x.cfg.RelNoise, 0)
				t = time.Now()
				prof, err := clus.Measure(smp.Config, instrumented, x.cfg.Reps, src)
				d := time.Since(t)
				if err != nil {
					return err
				}
				L.measure += d
				rec.child(consumeSpans[i], "cluster.measure", d)
				for fn := range taintRep.Relevant {
					if vals, ok := prof.FuncSeconds[fn]; ok {
						dataset(fn, metric).Add(pv, vals...)
					}
				}
			}
		}
	}
	var hybrid, blackBox []extrap.Request
	for _, k := range order {
		hybrid = append(hybrid, extrap.Request{Name: k.fn, Dataset: data[k], Prior: taintRep.Prior(k.fn, x.cfg.Params)})
		blackBox = append(blackBox, extrap.Request{Name: k.fn, Dataset: data[k]})
	}
	L.finishFits = len(hybrid) + len(blackBox)
	t = time.Now()
	hybridFits := extrap.FitAll(hybrid, extrap.DefaultOptions(), 1)
	L.fitHybrid = time.Since(t)
	t = time.Now()
	blackBoxFits := extrap.FitAll(blackBox, extrap.DefaultOptions(), 1)
	L.fitBlackBox = time.Since(t)
	rec.child(finSpan, "extrap.fitall", L.fitHybrid+L.fitBlackBox)

	// The datasets and fits above are rebuilt from outside, from what
	// modelreg documents about its noise streams, defaults and priors. If
	// modelreg changes any of that, these are no longer the pipeline's own
	// measurements and fits, and the pass must fail rather than drift.
	pairs := 0
	for _, fm := range L.set.Functions {
		pairs += len(fm.Metrics)
	}
	if pairs != len(order) {
		return fmt.Errorf("rebuilt %d datasets, the pipeline's model set has %d", len(order), pairs)
	}
	for i, k := range order {
		mm := modelOf(L.set, k.fn, k.metric)
		if mm == nil {
			return fmt.Errorf("rebuilt dataset %s/%s is not in the pipeline's model set", k.fn, k.metric)
		}
		if got := data[k].MaxCoV(); len(data[k].Points) != mm.Points || got != mm.MaxCoV {
			return fmt.Errorf("rebuilt dataset %s/%s: %d points, max CoV %v; the pipeline's has %d, %v",
				k.fn, k.metric, len(data[k].Points), got, mm.Points, mm.MaxCoV)
		}
		if !sameFit(hybridFits[i], mm.Hybrid) || !sameFit(blackBoxFits[i], mm.BlackBox) {
			return fmt.Errorf("rebuilt fits of %s/%s differ from the pipeline's", k.fn, k.metric)
		}
	}

	self := selfByName(rec.of(op))[op]
	for name, ns := range self {
		if name != rootName {
			L.layerSelf += time.Duration(ns)
		}
	}
	return nil
}

// modelOf finds one function's models of one metric in a model set.
func modelOf(set *modelreg.ModelSet, fn, metric string) *modelreg.MetricModel {
	for i := range set.Functions {
		if set.Functions[i].Function != fn {
			continue
		}
		for j := range set.Functions[i].Metrics {
			if set.Functions[i].Metrics[j].Metric == metric {
				return &set.Functions[i].Metrics[j]
			}
		}
	}
	return nil
}

// sameFit reports whether a rebuilt fit is the one the pipeline filed:
// both failed, or the same model.
func sameFit(f extrap.Fit, want *modelreg.ModelFit) bool {
	if f.Model == nil || want == nil {
		return f.Model == nil && want == nil
	}
	return f.Model.String() == want.Expr
}

// bare times Machine.Run for cfg with and without the taint engine and
// files the tainted run under the Analyze span that contained it. The
// tainted run must execute exactly the instructions that Analyze call
// reported: bareRun sets the machine up from outside, as core does today.
func (L *layers) bare(rec *recorder, prep *core.Prepared, cfg apps.Config, analyzeSpan int, designPoint bool, instr int64) error {
	d, n, err := bareRun(prep, cfg, true)
	if err != nil {
		return err
	}
	if n != instr {
		return fmt.Errorf("bare run at %v executed %d instructions, Analyze reported %d", cfg, n, instr)
	}
	rec.child(analyzeSpan, "interp.run", d)
	L.tainted += d
	L.instr += n
	if designPoint {
		L.taintedPoints += d
	}
	d, n, err = bareRun(prep, cfg, false)
	if err != nil {
		return err
	}
	L.untainted += d
	L.instrClean += n
	return nil
}
