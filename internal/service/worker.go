package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
)

// workerLink is a daemon's membership in a cluster: the registration and
// heartbeat loop against its coordinator.
type workerLink struct {
	s         *Server
	coordURL  string
	advertise string
	client    *http.Client

	mu       sync.Mutex
	workerID string
}

// StartWorkerLoop joins this daemon to the coordinator at coordURL,
// advertising itself as reachable at advertise, and keeps the membership
// alive (register, heartbeat, re-register when the coordinator forgets
// us — e.g. after its restart) until ctx dies. ListenAndServe calls it
// when Options.JoinURL is set; tests drive it directly against
// httptest servers.
func (s *Server) StartWorkerLoop(ctx context.Context, coordURL, advertise string) {
	wl := &workerLink{
		s:         s,
		coordURL:  strings.TrimRight(coordURL, "/"),
		advertise: strings.TrimRight(advertise, "/"),
		client:    &http.Client{Timeout: 10 * time.Second},
	}
	s.setWorkerLink(wl)
	go wl.run(ctx)
}

func (s *Server) setWorkerLink(wl *workerLink) {
	s.clusterMu.Lock()
	s.worker = wl
	s.clusterMu.Unlock()
}

func (s *Server) workerLinkRef() *workerLink {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return s.worker
}

// run is the membership loop: ensure registration, then heartbeat at the
// configured interval. A 404 heartbeat (the coordinator does not know
// us) drops the registration so the next iteration re-registers; any
// other failure just retries on the next tick — the coordinator benches
// silent workers itself.
func (wl *workerLink) run(ctx context.Context) {
	t := time.NewTicker(wl.s.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		wl.mu.Lock()
		id := wl.workerID
		wl.mu.Unlock()
		if id == "" {
			wl.register(ctx)
		} else {
			wl.heartbeat(ctx, id)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// register performs the protocol handshake. The coordinator rejects
// version mismatches here, so a worker that holds a workerID is known
// wire-compatible.
func (wl *workerLink) register(ctx context.Context) {
	var resp api.RegisterResponse
	err := wl.post(ctx, "/v1/worker/register",
		&api.RegisterRequest{Protocol: api.ProtocolVersion, Addr: wl.advertise}, &resp)
	if err != nil {
		return
	}
	wl.mu.Lock()
	wl.workerID = resp.WorkerID
	wl.mu.Unlock()
}

func (wl *workerLink) heartbeat(ctx context.Context, id string) {
	var resp api.HeartbeatResponse
	err := wl.post(ctx, "/v1/worker/heartbeat", &api.HeartbeatRequest{WorkerID: id}, &resp)
	var apiErr *api.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
		wl.mu.Lock()
		wl.workerID = ""
		wl.mu.Unlock()
	}
}

// post is a minimal JSON round-trip against the coordinator.
func (wl *workerLink) post(ctx context.Context, path string, body, out any) error {
	c := NewClient(wl.coordURL)
	c.HTTP = wl.client
	return c.do(ctx, http.MethodPost, path, body, out)
}

// handleShard executes one contiguous design shard and streams its
// results as NDJSON ShardLines in design order. Any daemon serves it —
// shard execution needs nothing coordinator-specific — but in practice
// only coordinators dispatch here. Shards are coordinator-internal
// traffic and bypass client admission control: the originating client
// request was already charged for every design point at the coordinator.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req api.ShardRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Protocol != api.ProtocolVersion {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("protocol mismatch: coordinator speaks %q, worker %q", req.Protocol, api.ProtocolVersion))
		return
	}
	if len(req.Configs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("shard has no configs"))
		return
	}
	_, _, prepared, digest, err := s.resolve(r.Context(), req.App)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if digest != req.SpecDigest {
		// The worker's registry builds a different program than the
		// coordinator asked for — refusing is the only safe answer, since
		// merged results must all come from one spec content.
		httpError(w, http.StatusConflict,
			fmt.Errorf("spec digest mismatch for app %q: built %s, coordinator wants %s", req.App, digest, req.SpecDigest))
		return
	}
	// Injected shard-stream faults model a worker dying or stalling
	// mid-shard: the coordinator must re-dispatch the whole shard to a
	// survivor (or run it locally) and the merged stream must not change.
	cutAt := -1 // truncate the NDJSON stream after this many lines
	if f, ok := faultinject.Eval(faultinject.SiteShardStream); ok {
		switch f.Kind {
		case faultinject.KindError:
			httpError(w, http.StatusServiceUnavailable, faultinject.Errf(f))
			return
		case faultinject.KindDrop:
			// Worker dies before answering: the connection aborts with no
			// status line, the coordinator re-dispatches to a survivor.
			panic(http.ErrAbortHandler)
		case faultinject.KindTruncate:
			cutAt = faultinject.Cut(f, len(req.Configs))
		case faultinject.KindLatency:
			select {
			case <-time.After(f.Delay):
			case <-r.Context().Done():
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	sent := 0
	errCut := errors.New("injected shard stream cut")
	d := design{app: req.App, digest: digest, prepared: prepared, cfgs: req.Configs,
		censusParams: req.CensusParams}
	// A shard whose request (or daemon) dies mid-way just ends short: the
	// coordinator treats a short stream as a failed dispatch.
	err = s.runPoints(r.Context(), d, func(line api.ShardLine) error {
		if cutAt >= 0 && sent >= cutAt {
			return errCut
		}
		line.Index += req.Start
		if err := enc.Encode(&line); err != nil {
			return err
		}
		_ = rc.Flush()
		sent++
		return nil
	})
	if errors.Is(err, errCut) {
		// Mid-stream death: abort the connection so the coordinator sees a
		// short read, not a clean-but-incomplete end-of-stream.
		panic(http.ErrAbortHandler)
	}
}
