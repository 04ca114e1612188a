package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// clusterNode is one daemon of a test cluster plus its HTTP front.
type clusterNode struct {
	srv    *Server
	hs     *httptest.Server
	cancel context.CancelFunc // stops the worker membership loop
}

// startCluster boots a coordinator and n workers on httptest servers
// with fast heartbeats, waits until every worker is live, and returns
// the coordinator's client plus the nodes. wrap, when non-nil, decorates
// worker i's handler (fault injection).
func startCluster(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) (*Client, *clusterNode, []*clusterNode) {
	t.Helper()
	return startClusterApps(t, n, wrap, nil)
}

// startClusterApps is startCluster with the workers' (not the
// coordinator's) app registry extended by workerApps.
func startClusterApps(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, workerApps map[string]App) (*Client, *clusterNode, []*clusterNode) {
	t.Helper()
	leakcheck.Check(t) // registered first => verified after every node closes
	coordSrv, err := NewServer(Options{
		Workers:           2,
		Coordinator:       true,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	chs := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() {
		chs.Close()
		coordSrv.Close()
	})
	coord := &clusterNode{srv: coordSrv, hs: chs}

	var workers []*clusterNode
	for i := 0; i < n; i++ {
		wsrv, err := NewServer(Options{Workers: 2, HeartbeatInterval: 25 * time.Millisecond, Apps: workerApps})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = wsrv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		whs := httptest.NewServer(h)
		ctx, cancel := context.WithCancel(context.Background())
		wsrv.StartWorkerLoop(ctx, chs.URL, whs.URL)
		t.Cleanup(func() {
			cancel()
			whs.Close()
			wsrv.Close()
		})
		workers = append(workers, &clusterNode{srv: wsrv, hs: whs, cancel: cancel})
	}

	client := NewClient(chs.URL)
	waitLiveWorkers(t, client, n)
	return client, coord, workers
}

// waitLiveWorkers polls the coordinator's stats until want workers are
// live.
func waitLiveWorkers(t *testing.T, c *Client, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err == nil && st.Cluster != nil && st.Cluster.LiveWorkers == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %d live workers (stats: %+v)", want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterSweepReq is the reference design the byte-identity tests run:
// 12 points, enough to split into several shards across two workers.
func clusterSweepReq() api.SweepRequest {
	return api.SweepRequest{
		App: "lulesh",
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4, 6, 8}},
			{Param: "size", Values: []float64{10, 14, 18}},
		},
	}
}

// rawSweep POSTs a sweep and returns the exact response bytes.
func rawSweep(t *testing.T, baseURL string, req api.SweepRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// singleNodeSweep runs the reference design on a fresh standalone daemon
// and returns the raw stream — the golden bytes every cluster variant
// must reproduce.
func singleNodeSweep(t *testing.T) []byte {
	t.Helper()
	srv, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	return rawSweep(t, hs.URL, clusterSweepReq())
}

func TestClusterSweepByteIdenticalToSingleNode(t *testing.T) {
	want := singleNodeSweep(t)
	client, coord, _ := startCluster(t, 2, nil)

	got := rawSweep(t, coord.hs.URL, clusterSweepReq())
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed sweep stream diverged from single-node:\n got: %s\nwant: %s", got, want)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.ShardsDispatched == 0 {
		t.Fatalf("no shards were dispatched remotely: %+v", st.Cluster)
	}
	// Both workers should have carried shards: the balancer spreads a
	// 6-shard design over 2 idle workers.
	for _, ws := range st.Cluster.Workers {
		if ws.Shards == 0 {
			t.Errorf("worker %s executed no shards; balancing is broken: %+v", ws.ID, st.Cluster.Workers)
		}
	}
}

func TestClusterWorkerKilledMidShardRetriesElsewhere(t *testing.T) {
	want := singleNodeSweep(t)

	// Worker 1's first shard dies mid-stream: a partial NDJSON line goes
	// out, then the connection is severed — exactly what a SIGKILL'd
	// worker looks like from the coordinator's side.
	var mu sync.Mutex
	killed := false
	wrap := func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				mu.Lock()
				first := !killed
				killed = true
				mu.Unlock()
				if first {
					w.Header().Set("Content-Type", "application/x-ndjson")
					w.WriteHeader(http.StatusOK)
					_, _ = io.WriteString(w, `{"index":`)
					if f, ok := w.(http.Flusher); ok {
						f.Flush()
					}
					panic(http.ErrAbortHandler)
				}
			}
			h.ServeHTTP(w, r)
		})
	}

	client, coord, _ := startCluster(t, 2, wrap)
	got := rawSweep(t, coord.hs.URL, clusterSweepReq())
	if !bytes.Equal(got, want) {
		t.Fatalf("stream after mid-shard worker death diverged from single-node:\n got: %s\nwant: %s", got, want)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.ShardRetries == 0 {
		t.Fatalf("expected at least one shard retry after the mid-shard death: %+v", st.Cluster)
	}
	if st.Cluster.ShardsDispatched == 0 {
		t.Fatalf("retries should have landed on the surviving worker: %+v", st.Cluster)
	}
}

func TestClusterHeartbeatLossBenchesWorker(t *testing.T) {
	want := singleNodeSweep(t)
	client, coord, workers := startCluster(t, 2, nil)

	// Stop worker 1's membership loop: its server stays up but its
	// heartbeats stop, so the reaper must bench it.
	workers[1].cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cluster.LiveWorkers == 1 {
			if st.Cluster.HeartbeatMisses == 0 {
				t.Fatalf("worker benched without counting a heartbeat miss: %+v", st.Cluster)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent worker never benched: %+v", st.Cluster)
		}
		time.Sleep(10 * time.Millisecond)
	}

	got := rawSweep(t, coord.hs.URL, clusterSweepReq())
	if !bytes.Equal(got, want) {
		t.Fatalf("stream with a benched worker diverged from single-node:\n got: %s\nwant: %s", got, want)
	}
}

func TestClusterCoordinatorWithoutWorkersRunsLocally(t *testing.T) {
	want := singleNodeSweep(t)
	srv, err := NewServer(Options{Workers: 2, Coordinator: true,
		HeartbeatInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	got := rawSweep(t, hs.URL, clusterSweepReq())
	if !bytes.Equal(got, want) {
		t.Fatalf("workerless coordinator diverged from single-node:\n got: %s\nwant: %s", got, want)
	}
	st, err := NewClient(hs.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.ShardsDispatched != 0 || st.Cluster.ShardsLocal != 0 {
		t.Fatalf("workerless coordinator should use the plain local path: %+v", st.Cluster)
	}
}

func TestClusterModelExtractionMatchesSingleNode(t *testing.T) {
	req := api.ModelRequest{
		App:    "lulesh",
		Params: []string{"p", "size"},
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4, 6, 8}},
			{Param: "size", Values: []float64{10, 14, 18}},
		},
	}

	// Single-node golden.
	ssrv, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	shs := httptest.NewServer(ssrv.Handler())
	defer shs.Close()
	defer ssrv.Close()
	wantResp, err := NewClient(shs.URL).Models(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	client, _, _ := startCluster(t, 2, nil)
	gotResp, err := client.Models(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Key != wantResp.Key {
		t.Fatalf("registry key diverged: distributed %s, single-node %s", gotResp.Key, wantResp.Key)
	}
	gotJSON, _ := json.Marshal(gotResp.ModelSet)
	wantJSON, _ := json.Marshal(wantResp.ModelSet)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("distributed ModelSet diverged from single-node:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}

	// The finished artifact must land in the coordinator's registry.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Models.Entries == 0 {
		t.Fatal("distributed extraction did not warm the coordinator's model registry")
	}
	again, err := client.Models(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("second extraction of the same design should be a registry hit")
	}
}

func TestClusterProtocolMismatchRejectedAtRegistration(t *testing.T) {
	_, coord, _ := startCluster(t, 0, nil)
	body, _ := json.Marshal(map[string]string{
		"protocol": "perftaint-api-v0",
		"addr":     "http://127.0.0.1:1",
	})
	resp, err := http.Post(coord.hs.URL+"/v1/worker/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-version registration answered %d, want 400", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		t.Fatalf("error envelope missing: %s", raw)
	}
}

// TestShardRefusesMismatchedSpecDigest: every node must register the
// same app definitions. A worker whose "lulesh" is a different program
// refuses the coordinator's shards with 409 rather than contributing
// results from another spec, and the coordinator retries, falls back to
// its own pool, and still streams bytes identical to single-node.
func TestShardRefusesMismatchedSpecDigest(t *testing.T) {
	want := singleNodeSweep(t)
	client, coord, workers := startClusterApps(t, 1, nil, map[string]App{
		"lulesh": {New: apps.MILC, TaintConfig: apps.MILCTaintConfig},
	})
	ctx := context.Background()

	body, err := json.Marshal(&api.ShardRequest{
		Protocol:   api.ProtocolVersion,
		App:        "lulesh",
		SpecDigest: core.SpecDigest(apps.LULESH()),
		Configs:    []apps.Config{apps.LULESHTaintConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(workers[0].hs.URL+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("shard for a spec the worker builds differently answered %d, want 409", resp.StatusCode)
	}

	if got := rawSweep(t, coord.hs.URL, clusterSweepReq()); !bytes.Equal(got, want) {
		t.Fatalf("sweep over a refusing worker differs from single-node:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs := st.Cluster; cs.ShardsDispatched != 0 || cs.ShardRetries == 0 || cs.ShardsLocal == 0 {
		t.Fatalf("cluster stats = %+v, want every shard refused, retried and run locally", cs)
	}
	wst, err := NewClient(workers[0].hs.URL).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Cluster == nil || wst.Cluster.Role != "worker" {
		t.Fatalf("worker stats carry no worker-role cluster block: %+v", wst.Cluster)
	}
}
