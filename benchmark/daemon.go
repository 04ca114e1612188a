package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// daemon is one in-process perftaintd behind a real loopback listener.
type daemon struct {
	srv *service.Server
	hs  *httptest.Server
}

func startDaemon(opts service.Options) (*daemon, error) {
	srv, err := service.NewServer(opts)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) close() {
	if d != nil {
		d.hs.Close()
		d.srv.Close()
	}
}

// connect returns n clients of the daemon at url, one connection each.
func connect(url string, n int) []*service.Client {
	out := make([]*service.Client, n)
	for i := range out {
		out[i] = service.NewClient(url)
		out[i].HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return out
}

func disconnect(clients []*service.Client) {
	for _, c := range clients {
		c.HTTP.CloseIdleConnections()
	}
}

// serviceView is what the traced pass needs to probe a daemon workload
// from outside: the daemon under test, a plain single-node journal-less
// daemon to difference against, and one representative request of each
// kind.
type serviceView struct {
	primary   string
	plain     string
	journaled bool
	sharded   bool
	prep      *core.Prepared
	sweep     api.SweepRequest
	cfgs      []apps.Config
	hit       api.ModelRequest // answers from the registry's memory tier
}

// luleshAxes spells a p x size design on the wire.
func luleshAxes(ps, sizes []float64) []api.SweepAxis {
	return []api.SweepAxis{{Param: "p", Values: ps}, {Param: "size", Values: sizes}}
}

// modelRequest is the wire form of luleshDesign(ps, sizes, seed): both
// must resolve to the same registry key.
func modelRequest(ps, sizes []float64, seed int64) api.ModelRequest {
	return api.ModelRequest{
		App:     "lulesh",
		Params:  []string{"p", "size"},
		Axes:    luleshAxes(ps, sizes),
		Reps:    3,
		Seed:    seed,
		Batch:   5,
		Metrics: []string{modelreg.MetricSeconds, modelreg.MetricIterations},
	}
}

// sweepConfigs expands a LULESH sweep the way the daemon does.
func sweepConfigs(prep *core.Prepared, ps, sizes []float64) []apps.Config {
	return runner.Design{Spec: prep.Spec, Defaults: luleshApp.TaintConfig(), Axes: []runner.Axis{
		{Param: "p", Values: ps}, {Param: "size", Values: sizes},
	}}.Configs()
}

// analysisBytes renders the wire projection of an in-process analysis.
func analysisBytes(prep *core.Prepared, cfg apps.Config) ([]byte, error) {
	rep, err := prep.Analyze(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(api.NewAnalysisResult("lulesh", prep.Digest, rep, api.DefaultCensusParams()))
}

// checkSweep holds a streamed sweep to its reference: exactly one line
// per design point, seq 1..N, design order, the configuration and the
// analysis equal to the reference's. Job IDs are the daemon's own
// counter and are not compared.
func checkSweep(lines []api.SweepLine, cfgs []apps.Config, ref [][]byte) error {
	if len(lines) != len(cfgs) {
		return fmt.Errorf("sweep streamed %d lines for %d design points", len(lines), len(cfgs))
	}
	for i, l := range lines {
		if l.Seq != int64(i+1) || l.Index != i || l.Error != "" || l.Result == nil {
			return fmt.Errorf("sweep line %d: seq %d index %d error %q", i, l.Seq, l.Index, l.Error)
		}
		if !maps.Equal(l.Config, cfgs[i]) || !marshalsTo(l.Result, ref[i]) {
			return fmt.Errorf("sweep line %d differs from the reference analysis", i)
		}
	}
	return nil
}

// freshSeed gives op i of a run its own modeling seed, so its model
// request misses the registry.
func freshSeed(seed int64, i int) int64 { return seed<<24 + int64(i) + 1024 }

// streamPair is the op of the two write-path workloads: a streamed model
// extraction with a fresh seed, then a streamed sweep of the same design,
// as a CI job that wants both the models and the per-point analyses asks
// for them. The two requests are one op because their latencies differ:
// counted separately they would make a two-humped distribution whose
// median is the noisiest point between the humps.
type streamPair struct {
	seed      int64
	ps, sizes []float64
	prep      *core.Prepared
	cfgs      []apps.Config
	ref       [][]byte // reference analysis per design point
	clients   []*service.Client
}

func (p *streamPair) extraction(i int) extraction {
	return extraction{spec: p.prep.Spec, prep: p.prep, cfg: luleshDesign(p.ps, p.sizes, freshSeed(p.seed, i))}
}

func (p *streamPair) sweepRequest(i int) api.SweepRequest {
	// Two clients sweeping the same design would share one journal key
	// and queue behind each other; the start-TTL is part of the client's
	// idempotency key and not of the work, so it tells the ops apart.
	return api.SweepRequest{App: "lulesh", Axes: luleshAxes(p.ps, p.sizes), TimeoutMS: 30_000 + int64(i&0xfff)}
}

func (p *streamPair) op(ctx context.Context, c, i int) (func() error, error) {
	cl := p.clients[c]
	x := p.extraction(i)
	resp, err := cl.ModelsStream(ctx, modelRequest(p.ps, p.sizes, x.cfg.Seed), nil)
	if err != nil {
		return nil, err
	}
	if want := modelreg.Key(p.prep.Digest, x.cfg); resp.Cached || resp.Key != want || resp.ModelSet == nil {
		return nil, fmt.Errorf("models answer cached=%v key=%s, want a fresh set under %s", resp.Cached, resp.Key, want)
	}
	lines, err := cl.SweepAll(ctx, p.sweepRequest(i))
	if err != nil {
		return nil, err
	}
	if err := checkSweep(lines, p.cfgs, p.ref); err != nil || i%10 != 0 {
		return nil, err
	}
	// Every 10th extraction is recomputed in process and must agree byte
	// for byte.
	return func() error {
		ms, err := x.extract(ctx, 2)
		if err != nil {
			return err
		}
		return sameJSON(resp.ModelSet, ms)
	}, nil
}

// marshalsTo reports whether v's JSON is exactly want.
func marshalsTo(v any, want []byte) bool {
	got, err := json.Marshal(v)
	return err == nil && bytes.Equal(got, want)
}

func sameJSON(got, want any) error {
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !marshalsTo(got, w) {
		return fmt.Errorf("answer differs from its reference (%d bytes)", len(w))
	}
	return nil
}

// warmIndex is the op index of the untimed warm-up op.
const warmIndex = -1

// warm runs the untimed warm-up op.
func (p *streamPair) warm(ctx context.Context) error {
	if _, err := p.op(ctx, 0, warmIndex); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// --- daemon-journaled ---

type daemonJournaled struct {
	streamPair
	d, plain *daemon
}

func setupDaemonJournaled(ctx context.Context, e env) (instance, error) {
	prep, err := prepareLULESH(e.root)
	if err != nil {
		return nil, err
	}
	w := &daemonJournaled{}
	w.streamPair = streamPair{seed: e.seed, prep: prep, ps: []float64{2, 4, 8, 16}, sizes: []float64{4, 5, 6, 7}}
	w.cfgs = sweepConfigs(prep, w.ps, w.sizes)
	for _, cfg := range w.cfgs {
		raw, err := analysisBytes(prep, cfg)
		if err != nil {
			return nil, err
		}
		w.ref = append(w.ref, raw)
	}
	if w.d, err = startDaemon(service.Options{Workers: 2, CacheDir: filepath.Join(e.dir, "cache")}); err != nil {
		return nil, err
	}
	w.clients = connect(w.d.hs.URL, 2)
	if e.trace {
		if w.plain, err = startDaemon(service.Options{Workers: 2}); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.warm(ctx); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// journalDrained is the post-condition of every journaling daemon: once
// all streams have ended, no job is left open.
func journalDrained(ctx context.Context, cl *service.Client) error {
	st, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	if st.Journal == nil || st.Journal.OpenJobs != 0 {
		return fmt.Errorf("journal after the window: %+v, want 0 open jobs", st.Journal)
	}
	return nil
}

func (w *daemonJournaled) finish(ctx context.Context) error {
	return journalDrained(ctx, w.clients[0])
}

func (w *daemonJournaled) close() {
	disconnect(w.clients)
	w.d.close()
	w.plain.close()
}

func (w *daemonJournaled) service() *serviceView {
	v := &serviceView{primary: w.d.hs.URL, journaled: true, prep: w.prep, cfgs: w.cfgs,
		sweep: w.sweepRequest(0), hit: modelRequest(w.ps, w.sizes, freshSeed(w.seed, warmIndex))}
	if w.plain != nil {
		v.plain = w.plain.hs.URL
	}
	return v
}

// --- cluster-sharded ---

type clusterSharded struct {
	streamPair
	coord, single *daemon
	workers       []*daemon
	stopWorkers   context.CancelFunc
}

func setupClusterSharded(ctx context.Context, e env) (instance, error) {
	prep, err := prepareLULESH(e.root)
	if err != nil {
		return nil, err
	}
	w := &clusterSharded{}
	w.streamPair = streamPair{seed: e.seed, prep: prep, ps: []float64{2, 4, 8, 16}, sizes: []float64{5, 6, 7, 8, 9, 10}}
	w.cfgs = sweepConfigs(prep, w.ps, w.sizes)
	fail := func(err error) (instance, error) {
		w.close()
		return nil, err
	}

	// The standalone single-node run is the reference the sharded
	// answers must reproduce.
	if w.single, err = startDaemon(service.Options{Workers: 2}); err != nil {
		return fail(err)
	}
	single := connect(w.single.hs.URL, 1)
	defer disconnect(single)
	lines, err := single[0].SweepAll(ctx, w.sweepRequest(warmIndex))
	if err != nil {
		return fail(err)
	}
	for _, l := range lines {
		raw, err := json.Marshal(l.Result)
		if err != nil {
			return fail(err)
		}
		w.ref = append(w.ref, raw)
	}
	if err := checkSweep(lines, w.cfgs, w.ref); err != nil {
		return fail(err)
	}
	want, err := single[0].ModelsStream(ctx, modelRequest(w.ps, w.sizes, freshSeed(w.seed, warmIndex)), nil)
	if err != nil {
		return fail(err)
	}

	if w.coord, err = startDaemon(service.Options{Workers: 1, Coordinator: true}); err != nil {
		return fail(err)
	}
	loops, stop := context.WithCancel(context.Background())
	w.stopWorkers = stop
	for k := 0; k < 2; k++ {
		wd, err := startDaemon(service.Options{Workers: 1})
		if err != nil {
			return fail(err)
		}
		w.workers = append(w.workers, wd)
		wd.srv.StartWorkerLoop(loops, w.coord.hs.URL, wd.hs.URL)
	}
	w.clients = connect(w.coord.hs.URL, 1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := w.clients[0].Stats(ctx)
		if err == nil && st.Cluster != nil && st.Cluster.LiveWorkers == len(w.workers) {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("cluster never reached %d live workers", len(w.workers)))
		}
	}

	if err := w.warm(ctx); err != nil {
		return fail(err)
	}
	got, err := w.clients[0].ModelsStream(ctx, modelRequest(w.ps, w.sizes, freshSeed(w.seed, warmIndex)), nil)
	if err != nil {
		return fail(err)
	}
	if got.Key != want.Key {
		return fail(fmt.Errorf("sharded model key %s, single-node %s", got.Key, want.Key))
	}
	if err := sameJSON(got.ModelSet, want.ModelSet); err != nil {
		return fail(fmt.Errorf("sharded model set: %w", err))
	}
	return w, nil
}

func (w *clusterSharded) finish(context.Context) error { return nil }

func (w *clusterSharded) close() {
	disconnect(w.clients)
	if w.stopWorkers != nil {
		w.stopWorkers()
	}
	for _, wd := range w.workers {
		wd.close()
	}
	w.coord.close()
	w.single.close()
	http.DefaultClient.CloseIdleConnections() // the coordinator dials workers through it
}

func (w *clusterSharded) service() *serviceView {
	return &serviceView{primary: w.coord.hs.URL, plain: w.single.hs.URL, sharded: true, prep: w.prep, cfgs: w.cfgs,
		sweep: w.sweepRequest(0), hit: modelRequest(w.ps, w.sizes, freshSeed(w.seed, warmIndex))}
}

// --- daemon-readmostly ---

// request kinds of the read-mostly mix.
const (
	kindModels = iota
	kindAnalyze
	kindGet
	kindStats
)

type draw struct{ kind, arg int }

// designs is how many model sets set-up warms; the registry holds half.
const designs = 8

type daemonReadMostly struct {
	prep    *core.Prepared
	d       *daemon
	plain   *daemon
	clients []*service.Client
	ps      []float64
	sizes   []float64

	mix      []draw
	requests [designs]api.ModelRequest
	keys     [designs]string
	sets     [designs][]byte
	analyses map[int][]byte // by size
	last     []int          // per client: the design of its latest models answer
}

func setupDaemonReadMostly(ctx context.Context, e env) (instance, error) {
	prep, err := prepareLULESH(e.root)
	if err != nil {
		return nil, err
	}
	w := &daemonReadMostly{prep: prep, ps: []float64{2, 4, 8, 16}, sizes: []float64{4, 5, 6, 7},
		analyses: make(map[int][]byte), last: []int{designs - 1, designs - 1}}
	for _, size := range w.sizes {
		cfg := luleshApp.TaintConfig()
		cfg["size"] = size
		if w.analyses[int(size)], err = analysisBytes(prep, cfg); err != nil {
			return nil, err
		}
	}

	// The mix is drawn once from the seed: 60% repeated model requests,
	// skewed so that popular designs stay in the registry's memory tier
	// and unpopular ones come back from disk; 30% analyses; 5% each
	// fetch-by-key and stats.
	rng := rand.New(rand.NewSource(e.seed))
	var cum [designs]float64
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	w.mix = make([]draw, 1<<14)
	for i := range w.mix {
		switch r := rng.Float64(); {
		case r < 0.60:
			u, k := rng.Float64()*total, 0
			for cum[k] < u {
				k++
			}
			w.mix[i] = draw{kindModels, k}
		case r < 0.90:
			w.mix[i] = draw{kindAnalyze, int(w.sizes[rng.Intn(len(w.sizes))])}
		case r < 0.95:
			w.mix[i] = draw{kindGet, 0}
		default:
			w.mix[i] = draw{kindStats, 0}
		}
	}

	if w.d, err = startDaemon(service.Options{Workers: 2, CacheDir: filepath.Join(e.dir, "cache"), ModelEntries: designs / 2}); err != nil {
		return nil, err
	}
	w.clients = connect(w.d.hs.URL, 2)
	if e.trace {
		if w.plain, err = startDaemon(service.Options{Workers: 2}); err != nil {
			w.close()
			return nil, err
		}
	}
	for k := 0; k < designs; k++ {
		w.requests[k] = modelRequest(w.ps, w.sizes, freshSeed(e.seed, k))
		resp, err := w.clients[0].Models(ctx, w.requests[k])
		if err == nil {
			w.keys[k] = resp.Key
			w.sets[k], err = json.Marshal(resp.ModelSet)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm design %d: %w", k, err)
		}
	}
	check, err := w.op(ctx, 0, 0)
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *daemonReadMostly) extraction(int) extraction {
	return extraction{spec: w.prep.Spec, prep: w.prep, cfg: luleshDesign(w.ps, w.sizes, w.requests[0].Seed)}
}

func (w *daemonReadMostly) op(ctx context.Context, c, i int) (func() error, error) {
	cl, d := w.clients[c], w.mix[i%len(w.mix)]
	switch d.kind {
	case kindModels:
		resp, err := cl.Models(ctx, w.requests[d.arg])
		if err != nil {
			return nil, err
		}
		w.last[c] = d.arg
		return nil, w.checkSet(resp, d.arg)
	case kindAnalyze:
		job, err := cl.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Config: apps.Config{"size": float64(d.arg)}})
		if err != nil {
			return nil, err
		}
		if job.Status != api.StatusDone || job.Result == nil {
			return nil, fmt.Errorf("analyze: status %s error %q", job.Status, job.Error)
		}
		if !marshalsTo(job.Result, w.analyses[d.arg]) {
			return nil, fmt.Errorf("analyze size %d differs from the in-process analysis", d.arg)
		}
		return nil, nil
	case kindGet:
		// Fetch the set this client saw last by its key; if the registry
		// has evicted it meanwhile, ask for it again the ordinary way, as
		// a client holding a stale key does.
		k := w.last[c]
		resp, err := cl.ModelByKey(ctx, w.keys[k])
		var apiErr *api.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			resp, err = cl.Models(ctx, w.requests[k])
		}
		if err != nil {
			return nil, err
		}
		return nil, w.checkSet(resp, k)
	default:
		st, err := cl.Stats(ctx)
		if err != nil {
			return nil, err
		}
		if st.Workers != 2 {
			return nil, fmt.Errorf("stats report %d workers, want 2", st.Workers)
		}
		return nil, nil
	}
}

// checkSet holds a repeated model answer to what set-up stored: served
// from the registry, under the expected key, the same bytes.
func (w *daemonReadMostly) checkSet(resp *api.ModelResponse, k int) error {
	if !resp.Cached || resp.Key != w.keys[k] {
		return fmt.Errorf("models design %d: cached=%v key=%s, want a registry answer under %s", k, resp.Cached, resp.Key, w.keys[k])
	}
	if !marshalsTo(resp.ModelSet, w.sets[k]) {
		return fmt.Errorf("models design %d: set differs from the one set-up stored", k)
	}
	return nil
}

func (w *daemonReadMostly) finish(ctx context.Context) error {
	return journalDrained(ctx, w.clients[0])
}

func (w *daemonReadMostly) close() {
	disconnect(w.clients)
	w.d.close()
	w.plain.close()
}

func (w *daemonReadMostly) service() *serviceView {
	v := &serviceView{primary: w.d.hs.URL, journaled: true, prep: w.prep, cfgs: sweepConfigs(w.prep, w.ps, w.sizes),
		sweep: api.SweepRequest{App: "lulesh", Axes: luleshAxes(w.ps, w.sizes)}, hit: w.requests[0]}
	if w.plain != nil {
		v.plain = w.plain.hs.URL
	}
	return v
}
