package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
)

// maxRetainedJobs bounds the finished-job history kept for
// GET /v1/jobs/{id}; the oldest finished jobs are forgotten first.
// Queued and running jobs are never evicted.
const maxRetainedJobs = 4096

// unit is one analysis on the pool's queue. Every analysis the daemon
// performs — a /v1/analyze job, a sweep or model-extraction point, a
// shard a coordinator sent — is one, so Options.Workers bounds them all.
type unit struct {
	ctx      context.Context // can stop the unit until it starts
	prepared *core.Prepared
	cfg      apps.Config
	// claim, when set, must agree before the unit runs; jobs make their
	// queued → running transition in it.
	claim func() bool
	// settle receives the outcome exactly once, on a worker goroutine: a
	// report, an analysis failure, or — for a unit that never ran — an
	// error wrapping the context's.
	settle func(rep *core.Report, err error)
}

// errShutDown refuses units that reach a closed scheduler. It wraps
// context.Canceled so it classifies as "never ran", like any other
// cancellation.
var errShutDown = fmt.Errorf("service: scheduler shut down: %w", context.Canceled)

// isCtxErr reports whether err is a context's own error: the point it
// belongs to never ran, so it is neither a result nor a failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scheduler is the daemon's one executor: a fixed pool of workers
// draining a FIFO queue of units. A unit whose context is dead when a
// worker reaches it is skipped, never run; a unit already running always
// finishes — the dynamic stage is fuel-bounded, so stragglers cannot run
// away. Two entry points feed the queue: runOrdered streams a design's
// outcomes in input order, and submit runs one /v1/analyze job with an
// ID, a status record and retention.
type scheduler struct {
	queue   chan *unit
	wg      sync.WaitGroup
	analyze func(*core.Prepared, apps.Config) (*core.Report, error)
	// runHist observes the latency of every analysis the pool executes.
	runHist *Histogram

	// sendMu serializes queue sends against close: submitters hold the
	// read side while sending, close takes the write side before closing
	// the channel, so a send can never race a close.
	sendMu sync.RWMutex

	mu        sync.Mutex
	closed    bool
	nextID    uint64
	jobs      map[string]*job
	retention []string // finished job ids, oldest first
	stats     api.JobStats
}

func newScheduler(workers, queueDepth int, runHist *Histogram) *scheduler {
	s := &scheduler{
		queue:   make(chan *unit, queueDepth),
		analyze: (*core.Prepared).Analyze,
		runHist: runHist,
		jobs:    make(map[string]*job),
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer s.wg.Done()
			for u := range s.queue {
				s.run(u)
			}
		}()
	}
	return s
}

// enqueue puts u on the queue, blocking while it is full; ctx aborts the
// wait. A unit that could not be queued is not settled — the caller
// still owns it.
func (s *scheduler) enqueue(ctx context.Context, u *unit) error {
	s.account(func(st *api.JobStats) { st.Submitted++ })
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	err := errShutDown
	if !s.isClosed() {
		select {
		case s.queue <- u:
			return nil
		case <-ctx.Done():
			err = fmt.Errorf("service: submission aborted: %w", ctx.Err())
		}
	}
	s.account(func(st *api.JobStats) { st.Canceled++ })
	return err
}

func (s *scheduler) run(u *unit) {
	if s.isClosed() || u.ctx.Err() != nil || (u.claim != nil && !u.claim()) {
		err := errShutDown
		if cause := context.Cause(u.ctx); cause != nil {
			err = fmt.Errorf("service: canceled before start: %w", cause)
		}
		s.account(func(st *api.JobStats) { st.Canceled++ })
		u.settle(nil, err)
		return
	}
	s.account(func(st *api.JobStats) { st.Running++ })
	start := time.Now()
	rep, err := s.analyze(u.prepared, u.cfg)
	s.runHist.ObserveSince(start)
	s.account(func(st *api.JobStats) {
		st.Running--
		if err != nil {
			st.Failed++
		} else {
			st.Completed++
		}
	})
	u.settle(rep, err)
}

// runOrdered executes p at every configuration in cfgs on the pool and
// hands each outcome — a report or an analysis failure — to emit in input
// order, as soon as it and all its predecessors have finished. emit runs
// on the caller's goroutine. Cancellation is never an outcome: once ctx
// dies, points that have not started are skipped and runOrdered returns
// the context's error without emitting them, so a caller that records
// what emit sees can never record a point that did not run. An emit error
// stops the stream the same way and is returned. Points already running
// finish on their own (they are fuel-bounded); nothing waits for them.
func (s *scheduler) runOrdered(ctx context.Context, p *core.Prepared, cfgs []apps.Config, emit func(i int, rep *core.Report, err error) error) error {
	ctx, cancel := context.WithCancel(ctx)
	type point struct {
		rep  *core.Report
		err  error
		done chan struct{}
	}
	points := make([]point, len(cfgs))
	for i := range points {
		points[i].done = make(chan struct{})
	}
	// The queue is bounded, so feeding it can block behind other work
	// while earlier points are already being consumed.
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := range points {
			pt := &points[i]
			u := &unit{ctx: ctx, prepared: p, cfg: cfgs[i], settle: func(rep *core.Report, err error) {
				pt.rep, pt.err = rep, err
				close(pt.done)
			}}
			if err := s.enqueue(ctx, u); err != nil {
				u.settle(nil, err)
				return
			}
		}
	}()
	defer func() {
		cancel()
		<-fed
	}()
	for i := range points {
		select {
		case <-points[i].done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if isCtxErr(points[i].err) {
			return points[i].err
		}
		if err := emit(i, points[i].rep, points[i].err); err != nil {
			return err
		}
		points[i].rep = nil // a long design must not pin every report to its end
	}
	return nil
}

// job is the /v1/analyze wrapper around one unit: an ID, a lifecycle
// record, and a place in the retention window. ctx carries everything
// that can stop the job before it starts — client disconnect (inline
// jobs), daemon shutdown, and start-TTL expiry; a per-job watcher
// goroutine turns ctx expiry into a prompt terminal transition even
// while the unit sits in the queue.
type job struct {
	id           string
	app          string
	cfg          apps.Config
	censusParams []string
	digest       string

	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal status.
	done chan struct{}

	mu        sync.Mutex
	status    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *api.AnalysisResult
	errMsg    string
}

// Info snapshots the job for the wire.
func (j *job) Info() *api.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := &api.JobInfo{
		ID:         j.id,
		App:        j.app,
		Status:     j.status,
		Config:     j.cfg,
		SpecDigest: j.digest,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Result:     j.result,
		Error:      j.errMsg,
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		info.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	return info
}

// claimRun transitions queued → running, refusing jobs already finished
// (by the TTL watcher or a failed submission) or whose context is spent.
// Exactly one of claimRun / finishJob wins any race: both transitions
// are serialized by j.mu.
func (j *job) claimRun() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != api.StatusQueued || j.ctx.Err() != nil {
		return false
	}
	j.status = api.StatusRunning
	j.started = time.Now()
	return true
}

// newJob registers a queued job. base carries cancellation: the request
// context for inline jobs (client disconnect cancels queued work),
// context.Background for async ones. startTTL bounds how long the job
// may wait to start — a job still queued past it is canceled, never run.
func (s *scheduler) newJob(base context.Context, startTTL time.Duration, app, digest string, cfg apps.Config, censusParams []string) *job {
	ctx, cancel := context.WithTimeout(base, startTTL)
	j := &job{
		app:          app,
		cfg:          cfg,
		censusParams: censusParams,
		digest:       digest,
		ctx:          ctx,
		cancel:       cancel,
		done:         make(chan struct{}),
		status:       api.StatusQueued,
		submitted:    time.Now(),
	}
	s.mu.Lock()
	s.nextID++
	j.id = jobID(s.nextID)
	s.jobs[j.id] = j
	s.mu.Unlock()
	// TTL watcher: a queued job whose context dies (deadline, client
	// disconnect) finishes immediately rather than when a worker happens
	// to reach it. Running jobs refuse the transition.
	go func() {
		select {
		case <-j.ctx.Done():
			s.finishJob(j, false, api.StatusCanceled, nil,
				fmt.Errorf("service: job %s canceled before start: %w", j.id, context.Cause(j.ctx)))
		case <-j.done:
		}
	}()
	return j
}

// submit hands the job's unit — p at the job's configuration — to the
// pool, blocking while the queue is full; ctx (the submitting request's
// context) aborts the wait. Only the unit holds p, so a finished job in
// the retention window never pins a cache-evicted artifact.
func (s *scheduler) submit(ctx context.Context, j *job, p *core.Prepared) error {
	err := s.enqueue(ctx, &unit{ctx: j.ctx, prepared: p, cfg: j.cfg, claim: j.claimRun,
		settle: func(rep *core.Report, err error) {
			switch {
			case isCtxErr(err):
				s.finishJob(j, true, api.StatusCanceled, nil, err)
			case err != nil:
				s.finishJob(j, true, api.StatusFailed, nil, err)
			default:
				s.finishJob(j, true, api.StatusDone, api.NewAnalysisResult(j.app, j.digest, rep, j.censusParams), nil)
			}
		}})
	if err != nil {
		s.finishJob(j, false, api.StatusCanceled, nil, err)
	}
	return err
}

// finishJob moves the job to a terminal status exactly once — only a
// queued job, or a running one the pool reports on, can finish (the
// watcher's cancel of a running job is refused) — and files it into the
// bounded retention window. Safe to call from the watcher, submit's
// error path, and the pool concurrently.
func (s *scheduler) finishJob(j *job, fromPool bool, status string, result *api.AnalysisResult, err error) {
	j.mu.Lock()
	if j.status != api.StatusQueued && !(j.status == api.StatusRunning && fromPool) {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.finished = time.Now()
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	j.cancel()
	close(j.done)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.retention = append(s.retention, j.id)
	for len(s.retention) > maxRetainedJobs {
		delete(s.jobs, s.retention[0])
		s.retention = s.retention[1:]
	}
}

func jobID(n uint64) string { return fmt.Sprintf("job-%d", n) }

// reserveJobBlock claims n consecutive job IDs from the counter without
// registering jobs and returns the first. A sweep reserves its whole
// block at acceptance and journals the first ID, so its design points
// carry exactly the job-k..job-(k+n-1) labels on every node they might
// run on and after any restart — part of the byte-identity contract.
// The labels are not resolvable via GET /v1/jobs.
func (s *scheduler) reserveJobBlock(n int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.nextID + 1
	s.nextID += uint64(n)
	return first
}

// ensureJobCounter advances the ID counter to at least min, so IDs
// journaled by a previous process are never re-issued to new jobs after
// a restart. It never moves the counter backwards.
func (s *scheduler) ensureJobCounter(min uint64) {
	s.mu.Lock()
	if s.nextID < min {
		s.nextID = min
	}
	s.mu.Unlock()
}

func (s *scheduler) account(f func(*api.JobStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func (s *scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *scheduler) jobStats() api.JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = len(s.queue)
	return st
}

// close stops the scheduler: new submissions are rejected, units that
// have not started are refused as workers reach them, and units already
// running finish. Returns once the pool is idle and every queued unit is
// settled, so shutdown latency is bounded by the runs in flight, not by
// the queue depth.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Wait out in-flight submitters (workers keep draining, so a blocked
	// send completes), then close the queue to stop the pool.
	s.sendMu.Lock()
	close(s.queue)
	s.sendMu.Unlock()
	s.wg.Wait()
}
