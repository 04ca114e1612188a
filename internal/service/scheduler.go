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

// maxWaitingAsync bounds the async /v1/analyze jobs waiting for a slot;
// nothing else bounds them, since no connection stays open behind one.
const maxWaitingAsync = 1024

// errShutDown refuses work that reaches a closed scheduler. It wraps
// context.Canceled so it classifies as "never ran", like any other
// cancellation.
var errShutDown = fmt.Errorf("service: scheduler shut down: %w", context.Canceled)

// errBusy refuses an async job past maxWaitingAsync.
var errBusy = fmt.Errorf("service: %d async jobs are already waiting for a worker", maxWaitingAsync)

// isCtxErr reports whether err is a context's own error: the point it
// belongs to never ran, so it is neither a result nor a failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scheduler is the daemon's one executor: a counting semaphore of
// Options.Workers slots. Every analysis the daemon performs — a
// /v1/analyze job, a sweep or model-extraction point, a shard a
// coordinator sent — takes a slot (acquire), runs, and frees it (exec),
// so Workers bounds them all. Slots are granted in arrival order, and a
// design stands in line once, not once per point, so a long design
// delays a later request by one analysis rather than by its length. A
// waiter whose context dies leaves the line without running; an analysis
// already running always finishes — the dynamic stage is fuel-bounded,
// so stragglers cannot run away. Two entry points: runOrdered streams a
// design's outcomes in input order, and submit runs one /v1/analyze job
// with an ID, a status record and retention.
type scheduler struct {
	// slots holds one token per running analysis: a send takes a slot, a
	// receive frees it. Blocked senders are woken in arrival order.
	slots chan struct{}
	// closing is closed by close and wakes every waiter.
	closing chan struct{}
	// runs counts what close waits for: analyses holding a slot and job
	// goroutines. It only grows under mu while closed is false.
	runs    sync.WaitGroup
	analyze func(*core.Prepared, apps.Config) (*core.Report, error)
	// runHist observes the latency of every analysis executed.
	runHist *Histogram

	mu           sync.Mutex
	closed       bool
	waitingAsync int
	nextID       uint64
	jobs         map[string]*job
	retention    []string     // finished job ids, oldest first
	stats        api.JobStats // Queued counts the analyses waiting for a slot
}

func newScheduler(workers int, runHist *Histogram) *scheduler {
	return &scheduler{
		slots:   make(chan struct{}, workers),
		closing: make(chan struct{}),
		analyze: (*core.Prepared).Analyze,
		runHist: runHist,
		jobs:    make(map[string]*job),
	}
}

// acquire waits in line for a slot. It fails, with an error wrapping the
// context's, when ctx dies or the scheduler closes first; the caller of
// a successful acquire owes one exec.
func (s *scheduler) acquire(ctx context.Context) error {
	s.mu.Lock()
	s.stats.Submitted++
	s.stats.Queued++
	s.mu.Unlock()
	won := false
	select {
	case s.slots <- struct{}{}:
		won = true
	case <-ctx.Done():
	case <-s.closing:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Queued--
	// select picks among ready cases at random, so a slot can be won with
	// a dead context or after close: check both again.
	if won && !s.closed && ctx.Err() == nil {
		s.stats.Running++
		s.runs.Add(1)
		return nil
	}
	if won {
		<-s.slots
	}
	s.stats.Canceled++
	if cause := context.Cause(ctx); cause != nil {
		return fmt.Errorf("service: canceled before start: %w", cause)
	}
	return errShutDown
}

// exec runs one analysis in the slot acquire granted and frees the slot.
func (s *scheduler) exec(p *core.Prepared, cfg apps.Config) (*core.Report, error) {
	start := time.Now()
	rep, err := s.analyze(p, cfg)
	s.runHist.ObserveSince(start)
	s.mu.Lock()
	s.stats.Running--
	if err != nil {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.mu.Unlock()
	<-s.slots
	s.runs.Done()
	return rep, err
}

// runOrdered executes p at every configuration in cfgs and hands each
// outcome — a report or an analysis failure — to emit in input order, as
// soon as it and all its predecessors have finished. emit runs on the
// caller's goroutine. Cancellation is never an outcome: once ctx dies,
// points that have not started are skipped and runOrdered returns the
// context's error without emitting them, so a caller that records what
// emit sees can never record a point that did not run. An emit error
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
	// The feeder is the design's one place in line: it takes slots in
	// design order and starts a point in each, while earlier points are
	// already being consumed.
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := range points {
			pt := &points[i]
			if pt.err = s.acquire(ctx); pt.err != nil {
				close(pt.done)
				return
			}
			go func() {
				pt.rep, pt.err = s.exec(p, cfgs[i])
				close(pt.done)
			}()
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

// job is the /v1/analyze wrapper around one analysis: an ID, a lifecycle
// record, and a place in the retention window.
type job struct {
	id     string
	app    string
	cfg    apps.Config
	digest string

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

// newJob registers a queued job, refusing it when the scheduler is
// closed or, for an async job, when maxWaitingAsync are already waiting.
// The caller owes the job's goroutine one s.runs.Done.
func (s *scheduler) newJob(async bool, app, digest string, cfg apps.Config) (*job, error) {
	j := &job{
		app:       app,
		cfg:       cfg,
		digest:    digest,
		done:      make(chan struct{}),
		status:    api.StatusQueued,
		submitted: time.Now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, errShutDown
	case async && s.waitingAsync >= maxWaitingAsync:
		return nil, errBusy
	case async:
		s.waitingAsync++
	}
	s.runs.Add(1)
	s.nextID++
	j.id = jobID(s.nextID)
	s.jobs[j.id] = j
	return j, nil
}

// submit runs p at cfg as a job: it waits for a slot, runs and finishes
// on a goroutine of its own. base carries cancellation — the request
// context for inline jobs (client disconnect cancels waiting work),
// context.Background for async ones — and startTTL bounds how long the
// job may wait to start: a job still waiting past it is canceled at
// once, never run; a job that started in time is never stopped by it.
// Only the goroutine holds p, so a finished job in the retention window
// never pins a cache-evicted artifact.
func (s *scheduler) submit(base context.Context, startTTL time.Duration, async bool, app, digest string, cfg apps.Config, censusParams []string, p *core.Prepared) (*job, error) {
	j, err := s.newJob(async, app, digest, cfg)
	if err != nil {
		return nil, err
	}
	go func() {
		defer s.runs.Done()
		ctx, cancel := context.WithTimeout(base, startTTL)
		err := s.acquire(ctx)
		cancel()
		if async {
			s.mu.Lock()
			s.waitingAsync--
			s.mu.Unlock()
		}
		if err != nil {
			s.finishJob(j, api.StatusCanceled, nil, err)
			return
		}
		j.mu.Lock()
		j.status = api.StatusRunning
		j.started = time.Now()
		j.mu.Unlock()
		rep, err := s.exec(p, cfg)
		if err != nil {
			s.finishJob(j, api.StatusFailed, nil, err)
			return
		}
		s.finishJob(j, api.StatusDone, api.NewAnalysisResult(app, digest, rep, censusParams), nil)
	}()
	return j, nil
}

// finishJob moves the job to its terminal status and files it into the
// bounded retention window. Only the job's own goroutine calls it, once.
func (s *scheduler) finishJob(j *job, status string, result *api.AnalysisResult, err error) {
	j.mu.Lock()
	j.status = status
	j.finished = time.Now()
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
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

func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *scheduler) jobStats() api.JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// close stops the scheduler: new work is refused, every waiter leaves
// the line with errShutDown, and analyses already running finish.
// Returns once they have and every job is terminal, so shutdown latency
// is bounded by the runs in flight, not by the length of the line.
func (s *scheduler) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	s.runs.Wait()
}
