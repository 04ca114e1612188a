package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
)

// workerRef is the coordinator's record of one registered worker. All
// fields are guarded by the owning coordinator's mutex.
type workerRef struct {
	id   string
	addr string
	// live gates dispatch: false after a heartbeat timeout or a failed
	// shard, true again on the next heartbeat (a transiently-failed
	// worker earns its way back by proving it is reachable).
	live     bool
	lastBeat time.Time
	// shards counts successful shard completions; inFlight the dispatches
	// currently outstanding (the balancer picks the least-loaded worker).
	shards   uint64
	inFlight int
}

// coordinator is the distributed-execution half of a Server running in
// coordinator mode: it tracks registered workers, partitions sweep
// designs into contiguous shards, dispatches them over the worker
// protocol, retries failures on surviving workers (falling back to local
// execution when the cluster is exhausted), and merges shard results
// back into the deterministic design-order stream.
type coordinator struct {
	s *Server
	// client dials workers; kept separate from http.DefaultClient so
	// tests can intercept it.
	client *http.Client

	// shardHist observes successful remote shard round-trip latency.
	shardHist *Histogram

	mu      sync.Mutex
	workers map[string]*workerRef // by id
	byAddr  map[string]*workerRef
	nextID  int

	shardsDispatched uint64
	shardsLocal      uint64
	shardRetries     uint64
	heartbeatMisses  uint64
}

func newCoordinator(s *Server) *coordinator {
	return &coordinator{
		s:         s,
		client:    &http.Client{},
		shardHist: NewHistogram(),
		workers:   make(map[string]*workerRef),
		byAddr:    make(map[string]*workerRef),
	}
}

// --- registration and liveness ---

func (co *coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if !co.s.decodeBody(w, r, &req) {
		return
	}
	if req.Protocol != api.ProtocolVersion {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("protocol mismatch: worker speaks %q, coordinator %q", req.Protocol, api.ProtocolVersion))
		return
	}
	u, err := url.Parse(req.Addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("worker addr %q is not an absolute URL", req.Addr))
		return
	}
	addr := strings.TrimRight(req.Addr, "/")
	co.mu.Lock()
	ref := co.byAddr[addr]
	if ref == nil {
		co.nextID++
		ref = &workerRef{id: fmt.Sprintf("worker-%d", co.nextID), addr: addr}
		co.workers[ref.id] = ref
		co.byAddr[addr] = ref
	}
	ref.live = true
	ref.lastBeat = time.Now()
	co.mu.Unlock()
	writeJSON(w, http.StatusOK, &api.RegisterResponse{
		WorkerID:    ref.id,
		Protocol:    api.ProtocolVersion,
		HeartbeatMS: co.s.opts.HeartbeatInterval.Milliseconds(),
	})
}

func (co *coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if !co.s.decodeBody(w, r, &req) {
		return
	}
	co.mu.Lock()
	ref := co.workers[req.WorkerID]
	if ref != nil {
		// A heartbeat proves reachability, so it also resurrects workers
		// benched by a timeout or a failed dispatch.
		ref.live = true
		ref.lastBeat = time.Now()
	}
	co.mu.Unlock()
	if ref == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q; re-register", req.WorkerID))
		return
	}
	writeJSON(w, http.StatusOK, &api.HeartbeatResponse{OK: true})
}

// reap marks workers dead when their heartbeats stop arriving; each
// live→dead transition counts one heartbeat miss. Runs until ctx dies.
func (co *coordinator) reap(ctx context.Context) {
	t := time.NewTicker(co.s.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		co.mu.Lock()
		for _, ref := range co.workers {
			if ref.live && now.Sub(ref.lastBeat) > co.s.opts.HeartbeatTimeout {
				ref.live = false
				co.heartbeatMisses++
			}
		}
		co.mu.Unlock()
	}
}

// hasLive reports whether at least one worker is currently dispatchable.
func (co *coordinator) hasLive() bool { return co.liveCount() > 0 }

func (co *coordinator) liveCount() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	n := 0
	for _, ref := range co.workers {
		if ref.live {
			n++
		}
	}
	return n
}

// pickWorker reserves the least-loaded live worker, preferring any
// worker other than avoid (so a retry of a shard that just failed lands
// elsewhere while alternatives exist). Returns nil when no live worker
// remains; the caller must release the pick.
func (co *coordinator) pickWorker(avoid *workerRef) *workerRef {
	co.mu.Lock()
	defer co.mu.Unlock()
	var best *workerRef
	for _, ref := range co.workers {
		if !ref.live || ref == avoid {
			continue
		}
		if best == nil || ref.inFlight < best.inFlight ||
			(ref.inFlight == best.inFlight && ref.id < best.id) {
			best = ref
		}
	}
	if best == nil && avoid != nil && avoid.live {
		best = avoid
	}
	if best != nil {
		best.inFlight++
	}
	return best
}

func (co *coordinator) release(ref *workerRef) {
	co.mu.Lock()
	ref.inFlight--
	co.mu.Unlock()
}

// --- shard scheduling ---

// shard is one contiguous slice of a design in flight.
type shardState struct {
	start int
	d     design // the sweep's design cut down to this shard's cfgs
	done  chan struct{}
	lines []api.ShardLine
	err   error
}

// shardAttempts bounds remote dispatch attempts per shard before the
// coordinator runs the shard locally.
const shardAttempts = 3

// shardSize resolves the shard length for an n-point design: roughly
// three shards per live worker, so the balancer has slack to route
// around a mid-sweep death without losing more than a sliver of work.
func (co *coordinator) shardSize(n int) int {
	shards := 3 * max(1, co.liveCount())
	return max(1, (n+shards-1)/shards)
}

// runSharded is the cluster point source: it partitions d.cfgs into
// contiguous shards, executes them across the live workers (with retry
// and local fallback), and emits every ShardLine in design order, indexed
// from 0 within d.cfgs — the same order and content runPoints produces,
// which is what makes the merged stream byte-identical. emit runs on
// this goroutine; an emit error aborts outstanding shards.
func (co *coordinator) runSharded(ctx context.Context, d design, emit func(api.ShardLine) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	size := co.shardSize(len(d.cfgs))
	var shards []*shardState
	for start := 0; start < len(d.cfgs); start += size {
		end := start + size
		if end > len(d.cfgs) {
			end = len(d.cfgs)
		}
		sh := &shardState{start: start, d: d, done: make(chan struct{})}
		sh.d.cfgs = d.cfgs[start:end]
		shards = append(shards, sh)
		go co.runShard(ctx, sh)
	}
	for _, sh := range shards {
		select {
		case <-sh.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if sh.err != nil {
			return sh.err
		}
		for _, line := range sh.lines {
			if err := emit(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// runShard drives one shard to completion: dispatch to the best live
// worker, retry elsewhere on failure with capped backoff, and fall back
// to the local pool once retries or workers run out. A worker that fails
// a dispatch is benched (marked dead) until its next heartbeat. A shard
// the sweep's own cancellation interrupted ends in sh.err; whatever
// lines it holds are never emitted.
func (co *coordinator) runShard(ctx context.Context, sh *shardState) {
	defer close(sh.done)
	req := &api.ShardRequest{
		Protocol:     api.ProtocolVersion,
		App:          sh.d.app,
		SpecDigest:   sh.d.digest,
		Start:        sh.start,
		Configs:      sh.d.cfgs,
		CensusParams: sh.d.censusParams,
	}
	var lastFailed *workerRef
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			sh.err = ctx.Err()
			return
		}
		var ref *workerRef
		if attempt < shardAttempts {
			ref = co.pickWorker(lastFailed)
		}
		if ref == nil {
			// Retries exhausted or no live worker: the shard still has to
			// finish — run it on the coordinator's own pool. A worker dying
			// mid-shard therefore loses exactly that shard's work, never
			// the sweep.
			sh.err = co.s.runPoints(ctx, sh.d, func(line api.ShardLine) error {
				line.Index += sh.start
				sh.lines = append(sh.lines, line)
				return nil
			})
			co.mu.Lock()
			co.shardsLocal++
			co.mu.Unlock()
			return
		}
		start := time.Now()
		lines, err := co.dispatch(ctx, ref, req)
		co.release(ref)
		if err == nil {
			co.mu.Lock()
			ref.shards++
			co.shardsDispatched++
			co.mu.Unlock()
			co.shardHist.ObserveSince(start)
			sh.lines = lines
			return
		}
		if ctx.Err() != nil {
			// The dispatch failed because the sweep itself is over; do not
			// punish the worker for our cancellation.
			sh.err = ctx.Err()
			return
		}
		co.mu.Lock()
		co.shardRetries++
		ref.live = false
		co.mu.Unlock()
		lastFailed = ref
		backoff := 100 * time.Millisecond << uint(attempt)
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
	}
}

// dispatch sends one shard to one worker and collects its full NDJSON
// response. Partial streams are an error — a truncated shard is retried
// whole, so merged output never mixes a worker's partial results with a
// retry's.
func (co *coordinator) dispatch(ctx context.Context, ref *workerRef, req *api.ShardRequest) ([]api.ShardLine, error) {
	ctx, cancel := context.WithTimeout(ctx, co.s.opts.ShardTimeout)
	defer cancel()
	if f, ok := faultinject.Eval(faultinject.SiteDispatch); ok {
		// An injected dispatch fault looks like a network failure before the
		// request left the coordinator: the retry-on-survivors path must
		// absorb it exactly like a real connection refusal.
		if f.Kind == faultinject.KindLatency {
			select {
			case <-time.After(f.Delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			return nil, fmt.Errorf("service: dispatch shard to %s: %w", ref.id, faultinject.Errf(f))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encode shard: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ref.addr+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("service: build shard request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := co.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("service: dispatch shard to %s: %w", ref.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: worker %s refused shard: %w", ref.id, apiError(resp))
	}
	lines := make([]api.ShardLine, 0, len(req.Configs))
	err = scanNDJSON(resp.Body, func(raw []byte) error {
		var line api.ShardLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("service: decode shard line: %w", err)
		}
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(lines) != len(req.Configs) {
		return nil, fmt.Errorf("service: worker %s returned %d/%d shard lines", ref.id, len(lines), len(req.Configs))
	}
	for i, line := range lines {
		if line.Index != req.Start+i {
			return nil, fmt.Errorf("service: worker %s shard out of order: line %d has index %d, want %d",
				ref.id, i, line.Index, req.Start+i)
		}
	}
	return lines, nil
}

// stats snapshots the cluster state for /v1/stats.
func (co *coordinator) stats() *api.ClusterStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := &api.ClusterStats{
		Role:             "coordinator",
		ShardsDispatched: co.shardsDispatched,
		ShardsLocal:      co.shardsLocal,
		ShardRetries:     co.shardRetries,
		HeartbeatMisses:  co.heartbeatMisses,
	}
	for _, ref := range co.workers {
		if ref.live {
			out.LiveWorkers++
		}
		out.Workers = append(out.Workers, api.WorkerStats{
			ID:              ref.id,
			Addr:            ref.addr,
			Live:            ref.live,
			Shards:          ref.shards,
			InFlight:        ref.inFlight,
			LastHeartbeatMS: time.Since(ref.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].ID < out.Workers[j].ID })
	return out
}
