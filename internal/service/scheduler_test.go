package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// The executor's contract (scheduler.go), test by test: a long design
// does not stand in front of a later request, Options.Workers bounds
// every analysis whichever door it came through, one worker runs a
// design in design order, a waiter whose context dies never runs while a
// runner's deadline never stops it, close settles every waiter without
// running it, and waiting async jobs are bounded.

// luleshReport is one real report every stubbed analysis hands back, so
// the result projection has something well-formed to read.
var luleshReport = sync.OnceValue(func() *core.Report {
	rep, err := core.Analyze(apps.LULESH(), apps.LULESHTaintConfig())
	if err != nil {
		panic(err)
	}
	return rep
})

// gate is a stub analysis that parks every caller until open.
type gate struct {
	open    chan struct{}
	entered atomic.Int64
}

func newGate(t *testing.T) *gate {
	g := &gate{open: make(chan struct{})}
	// Registered after the server's cleanup, so it runs before it: Close
	// waits for the runs in flight.
	t.Cleanup(g.release)
	return g
}

func (g *gate) analyze(*core.Prepared, apps.Config) (*core.Report, error) {
	g.entered.Add(1)
	<-g.open
	return luleshReport(), nil
}

func (g *gate) release() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

// occupancy wraps a stub analysis and records how many callers were
// inside it at once, and how many ran at all.
type occupancy struct{ inside, peak, ran atomic.Int64 }

func (o *occupancy) of(analyze func(*core.Prepared, apps.Config) (*core.Report, error)) func(*core.Prepared, apps.Config) (*core.Report, error) {
	return func(p *core.Prepared, cfg apps.Config) (*core.Report, error) {
		n := o.inside.Add(1)
		defer o.inside.Add(-1)
		for m := o.peak.Load(); n > m && !o.peak.CompareAndSwap(m, n); m = o.peak.Load() {
		}
		o.ran.Add(1)
		time.Sleep(time.Millisecond) // widen any overlap
		return analyze(p, cfg)
	}
}

// testScheduler is a bare scheduler, closed (after any gate opens) and
// leak-checked when the test ends.
func testScheduler(t *testing.T, workers int) *scheduler {
	leakcheck.Check(t)
	s := newScheduler(workers, NewHistogram())
	t.Cleanup(s.close)
	return s
}

func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func TestSchedulerLongSweepDoesNotBlockLaterRequest(t *testing.T) {
	// The later request names a tiny app, so what the test times is the
	// wait for a slot, not the handler resolving LULESH.
	srv, client := testServer(t, Options{Workers: 1, Apps: map[string]App{"slow": slowApp()}})
	rep := luleshReport()
	var sweepStarted, atJob atomic.Int64
	srv.sched.analyze = func(_ *core.Prepared, cfg apps.Config) (*core.Report, error) {
		if _, job := cfg["n"]; job {
			atJob.Store(sweepStarted.Load())
		} else {
			sweepStarted.Add(1)
		}
		time.Sleep(time.Millisecond)
		return rep, nil
	}
	sweep := api.SweepRequest{App: "lulesh", Axes: []runner.Axis{{Param: "p"}, {Param: "size"}}}
	for i := 1; i <= 20; i++ {
		sweep.Axes[0].Values = append(sweep.Axes[0].Values, float64(i))
	}
	for i := 10; i < 25; i++ {
		sweep.Axes[1].Values = append(sweep.Axes[1].Values, float64(i))
	}
	ctx := context.Background()
	later := api.AnalyzeRequest{App: "slow"}
	if _, err := client.Analyze(ctx, later); err != nil { // prepares the app
		t.Fatal(err)
	}
	swept := make(chan error, 1)
	go func() {
		n := 0
		err := client.Sweep(ctx, sweep, func(api.SweepLine) error { n++; return nil })
		if err == nil && n != 300 {
			err = fmt.Errorf("sweep streamed %d lines, want 300", n)
		}
		swept <- err
	}()
	eventually(t, "the sweep is streaming", func() bool { return sweepStarted.Load() >= 3 })
	before := sweepStarted.Load()
	job, err := client.Analyze(ctx, later)
	if err != nil || job.Status != api.StatusDone {
		t.Fatalf("analyze behind a sweep: %+v, %v", job, err)
	}
	ahead := atJob.Load() - before
	t.Logf("%d sweep points started between the request and its analysis", ahead)
	if ahead > 8 {
		t.Errorf("%d sweep points started between the request and its analysis, want at most 8: the design stood in line once per point", ahead)
	}
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerWorkersBoundEveryDoor(t *testing.T) {
	const workers = 3
	srv, client := testServer(t, Options{Workers: workers})
	rep := luleshReport()
	var load occupancy
	srv.sched.analyze = load.of(func(*core.Prepared, apps.Config) (*core.Report, error) { return rep, nil })
	ctx := context.Background()
	sweep := api.SweepRequest{App: "lulesh", Axes: []runner.Axis{
		{Param: "p", Values: []float64{1, 2, 3, 4, 5, 6}},
		{Param: "size", Values: []float64{10, 11, 12, 13, 14}},
	}}
	shard, err := json.Marshal(&api.ShardRequest{Protocol: api.ProtocolVersion, App: "lulesh",
		SpecDigest: core.SpecDigest(apps.LULESH()), Start: 5,
		Configs: runner.Design{Spec: apps.LULESH(), Defaults: apps.LULESHTaintConfig(), Axes: sweep.Axes}.Configs()[5:25]})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		run(func() error { _, err := client.SweepAll(ctx, sweep); return err })
	}
	run(func() error {
		resp := postJSON(t, client.BaseURL, "/v1/shard", string(shard), nil)
		defer resp.Body.Close()
		n := 0
		err := scanNDJSON(resp.Body, func([]byte) error { n++; return nil })
		if err == nil && (resp.StatusCode != http.StatusOK || n != 20) {
			err = fmt.Errorf("shard answered %d with %d lines, want 200 with 20", resp.StatusCode, n)
		}
		return err
	})
	for i := 0; i < 12; i++ {
		run(func() error {
			job, err := client.Analyze(ctx, api.AnalyzeRequest{App: "lulesh", Async: i%2 == 0})
			if err == nil && job.Status != api.StatusDone {
				_, err = client.WaitJob(ctx, job.ID, time.Millisecond)
			}
			return err
		})
	}
	wg.Wait()
	if got := load.ran.Load(); got != 2*30+20+12 {
		t.Errorf("%d analyses ran, want %d", got, 2*30+20+12)
	}
	if got := load.peak.Load(); got > workers {
		t.Errorf("%d analyses ran at once with Workers = %d", got, workers)
	}
	if st := srv.sched.jobStats(); st.Running != 0 || st.Queued != 0 || st.Submitted != st.Completed {
		t.Errorf("counters after the load: %+v", st)
	}
}

func TestSchedulerOneWorkerRunsDesignOrder(t *testing.T) {
	s := testScheduler(t, 1)
	var mu sync.Mutex
	var started []float64
	s.analyze = func(_ *core.Prepared, cfg apps.Config) (*core.Report, error) {
		mu.Lock()
		started = append(started, cfg["i"])
		mu.Unlock()
		return nil, nil
	}
	var cfgs []apps.Config
	var want []float64
	for i := 0; i < 200; i++ {
		cfgs = append(cfgs, apps.Config{"i": float64(i)})
		want = append(want, float64(i))
	}
	next := 0
	err := s.runOrdered(context.Background(), nil, cfgs, func(i int, _ *core.Report, err error) error {
		if i != next || err != nil {
			t.Errorf("emit(%d, %v), want index %d", i, err, next)
		}
		next++
		return nil
	})
	if err != nil || next != len(cfgs) {
		t.Fatalf("runOrdered = %v after %d points", err, next)
	}
	if !reflect.DeepEqual(started, want) {
		t.Errorf("points started out of design order: %v", started)
	}
}

func TestSchedulerContextStopsWaitersNotRunners(t *testing.T) {
	s := testScheduler(t, 1)
	g := newGate(t)
	s.analyze = g.analyze
	submit := func(base context.Context, ttl time.Duration) *job {
		t.Helper()
		j, err := s.submit(base, ttl, true, "lulesh", "digest", apps.Config{}, api.DefaultCensusParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	finished := func(j *job) *api.JobInfo {
		t.Helper()
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s is still %s", j.id, j.Info().Status)
		}
		return j.Info()
	}

	first := submit(context.Background(), 30*time.Millisecond)
	eventually(t, "the first job runs", func() bool { return g.entered.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	dropped := submit(ctx, time.Minute)
	expired := submit(context.Background(), 20*time.Millisecond)
	eventually(t, "both wait", func() bool { return s.jobStats().Queued == 2 })

	// Both leave the line while the slot is still taken: nothing polls.
	cancel()
	for _, j := range []*job{dropped, expired} {
		if info := finished(j); info.Status != api.StatusCanceled || info.Error == "" || !info.Started.IsZero() {
			t.Errorf("waiting job whose context died: %+v, want canceled and never started", info)
		}
	}
	// The first job's start-TTL passes while it runs; it is not a run deadline.
	time.Sleep(40 * time.Millisecond)
	if st := first.Info().Status; st != api.StatusRunning {
		t.Fatalf("running job past its start-TTL is %s, want running", st)
	}
	g.release()
	if info := finished(first); info.Status != api.StatusDone || info.Result == nil {
		t.Errorf("job that started in time: %+v, want done with a result", info)
	}
	if n := g.entered.Load(); n != 1 {
		t.Errorf("%d analyses ran, want only the one that started", n)
	}
	if st := s.jobStats(); st.Submitted != 3 || st.Canceled != 2 || st.Completed != 1 {
		t.Errorf("counters: %+v, want 3 submitted, 2 canceled, 1 completed", st)
	}
}

func TestSchedulerCloseSettlesParkedWaiters(t *testing.T) {
	s := testScheduler(t, 1)
	g := newGate(t)
	s.analyze = g.analyze
	var jobs []*job
	for i := 0; i <= 1000; i++ {
		j, err := s.submit(context.Background(), time.Minute, true, "lulesh", "digest", apps.Config{}, api.DefaultCensusParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if i == 0 {
			eventually(t, "the first job runs", func() bool { return g.entered.Load() == 1 })
		}
	}
	design := make(chan error, 1)
	go func() {
		design <- s.runOrdered(context.Background(), nil, make([]apps.Config, 5), func(int, *core.Report, error) error {
			return errors.New("emitted a point of a design that never got a slot")
		})
	}()
	eventually(t, "everything waits", func() bool { return s.jobStats().Queued == 1001 })

	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	// Every waiter is settled while the one run is still in flight...
	for _, j := range jobs[1:] {
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s still waits after close", j.id)
		}
		if info := j.Info(); info.Status != api.StatusCanceled || info.Error != errShutDown.Error() {
			t.Fatalf("parked job after close: %+v, want canceled with %q", info, errShutDown)
		}
	}
	if err := <-design; !errors.Is(err, errShutDown) {
		t.Errorf("parked design after close: %v, want %v", err, errShutDown)
	}
	// ...and that run is all close waits for.
	select {
	case <-closed:
		t.Fatal("close returned with an analysis still running")
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return once the run in flight finished")
	}
	if st := jobs[0].Info().Status; st != api.StatusDone {
		t.Errorf("the job running at close finished %s, want done", st)
	}
	if n := g.entered.Load(); n != 1 {
		t.Errorf("%d analyses ran, want 1", n)
	}
	if _, err := s.submit(context.Background(), time.Minute, false, "lulesh", "digest", apps.Config{}, nil, nil); !errors.Is(err, errShutDown) {
		t.Errorf("submit after close: %v, want %v", err, errShutDown)
	}
}

func TestServeBoundsWaitingAsyncJobs(t *testing.T) {
	// A tiny app: resolving it 1,026 times costs nothing.
	srv, client := testServer(t, Options{Workers: 1, Apps: map[string]App{"slow": slowApp()}})
	g := newGate(t)
	srv.sched.analyze = g.analyze
	post := func() *http.Response {
		return postJSON(t, client.BaseURL, "/v1/analyze", `{"app":"slow","async":true}`, nil)
	}
	accept := func() {
		t.Helper()
		resp := post()
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submission answered %d, want 202", resp.StatusCode)
		}
	}
	accept()
	eventually(t, "the first job runs", func() bool { return g.entered.Load() == 1 })
	for i := 0; i < maxWaitingAsync; i++ {
		accept()
	}
	resp := post()
	defer resp.Body.Close()
	var body api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Error != errBusy.Error() {
		t.Fatalf("waiting async job %d answered %d %+v, want 503 %q", maxWaitingAsync+1, resp.StatusCode, body, errBusy)
	}
	// An inline request is bounded by its own connection, not by the count.
	ctx, cancel := context.WithCancel(context.Background())
	inline := make(chan error, 1)
	go func() {
		_, err := client.Analyze(ctx, api.AnalyzeRequest{App: "slow"})
		inline <- err
	}()
	eventually(t, "the inline request waits too", func() bool { return srv.sched.jobStats().Queued == maxWaitingAsync+1 })
	cancel()
	if err := <-inline; !errors.Is(err, context.Canceled) {
		t.Errorf("inline request whose client left: %v", err)
	}
	eventually(t, "it left the line", func() bool { return srv.sched.jobStats().Queued == maxWaitingAsync })
}
