package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/leakcheck"
	"repro/internal/runner"
)

// installFaults makes sched the process-wide fault plan for one test and
// restores the previous plan on cleanup. Fault injection is global, so
// tests that install schedules must not run in parallel (none in this
// package do).
func installFaults(t *testing.T, sched *faultinject.Schedule) {
	t.Helper()
	prev := faultinject.Install(sched)
	t.Cleanup(func() { faultinject.Install(prev) })
}

// resilienceSweepReq is the 4-point reference design the crash-resume
// tests replay: small enough to sweep dozens of times, large enough to
// have interior record boundaries to crash on.
func resilienceSweepReq() api.SweepRequest {
	return api.SweepRequest{
		App: "lulesh",
		Axes: []runner.Axis{
			{Param: "p", Values: []float64{2, 4}},
			{Param: "size", Values: []float64{10, 14}},
		},
	}
}

// goldenSweepBytes runs the reference design on a fresh journal-less
// daemon and returns the raw stream — the bytes every crash/resume
// variant must reproduce.
func goldenSweepBytes(t *testing.T) []byte {
	t.Helper()
	srv, err := NewServer(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	body, status := postSweepRaw(t, hs.URL, resilienceSweepReq())
	if status != http.StatusOK {
		t.Fatalf("golden sweep returned %d: %s", status, body)
	}
	return body
}

// postSweepRaw POSTs a sweep with no resume headers and returns the raw
// response bytes plus the status, tolerating mid-stream aborts.
func postSweepRaw(t *testing.T, baseURL string, req api.SweepRequest) ([]byte, int) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // short reads expected under injected faults
	return body, resp.StatusCode
}

// postModelArtifact streams the reference model extraction and returns
// what the byte-identity contract covers for it — the registry key and
// the ModelSet bytes of the terminal result line — or nothing when the
// stream ended without one (expected under injected faults).
func postModelArtifact(t *testing.T, baseURL string) ([]byte, int) {
	t.Helper()
	req := modelTestRequest()
	req.Stream = true
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/models", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		var rec struct {
			Type     string          `json:"type"`
			Key      string          `json:"key"`
			ModelSet json.RawMessage `json:"model_set"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Type == "result" {
			return append([]byte(rec.Key+"\n"), rec.ModelSet...), resp.StatusCode
		}
	}
	return nil, resp.StatusCode
}

// TestSweepJournalReplayProperty is the crash-at-every-record-boundary
// property, over both sinks of the design-point pipeline: for each
// journal append k a clean run performs (acceptance, one per design
// point, the terminal record — and one past the end as the no-fault
// control), crash the append at k, restart a fresh daemon over the same
// cache dir, and require the resubmission's artifact to be byte-identical
// to an uninterrupted journal-less run — the whole stream for a sweep,
// the registry key and ModelSet for a model extraction. frac 0 crashes
// before any bytes of the record land; frac 0.5 leaves a torn frame for
// recovery to truncate.
func TestSweepJournalReplayProperty(t *testing.T) {
	sinks := []struct {
		prefix string // of the subtest names
		submit func(t *testing.T, baseURL string) ([]byte, int)
	}{
		{"", func(t *testing.T, baseURL string) ([]byte, int) {
			return postSweepRaw(t, baseURL, resilienceSweepReq())
		}},
		{"models-", postModelArtifact},
	}
	const appends = 6 // accept + 4 points + done, for either sink
	for _, sink := range sinks {
		ref, err := NewServer(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(ref.Handler())
		golden, status := sink.submit(t, hs.URL)
		hs.Close()
		ref.Close()
		if status != http.StatusOK || len(golden) == 0 {
			t.Fatalf("%sgolden run returned %d: %s", sink.prefix, status, golden)
		}
		for _, frac := range []float64{0, 0.5} {
			for hit := 1; hit <= appends+1; hit++ {
				t.Run(fmt.Sprintf("%shit-%d-frac-%v", sink.prefix, hit, frac), func(t *testing.T) {
					leakcheck.Check(t)
					dir := t.TempDir()

					// Phase 1: the daemon "crashes" at journal append hit: the
					// record is cut short on disk and the append fails, aborting
					// the stream exactly as process death at that boundary would.
					installFaults(t, faultinject.MustSchedule(faultinject.Fault{
						Site: faultinject.SiteJournalAppend, Hit: hit,
						Kind: faultinject.KindCrash, Frac: frac,
					}))
					srvA, err := NewServer(Options{Workers: 2, CacheDir: dir})
					if err != nil {
						t.Fatal(err)
					}
					hsA := httptest.NewServer(srvA.Handler())
					firstBody, _ := sink.submit(t, hsA.URL)
					hsA.Close()
					srvA.Close()
					if hit > appends && !bytes.Equal(firstBody, golden) {
						// The control run past the last boundary must already match.
						t.Fatalf("unfaulted journaled run diverged from golden:\n got: %s\nwant: %s", firstBody, golden)
					}

					// Phase 2: a fresh daemon over the same cache dir recovers the
					// journal and the resubmission must reproduce the golden bytes.
					faultinject.Install(nil)
					srvB, err := NewServer(Options{Workers: 2, CacheDir: dir})
					if err != nil {
						t.Fatal(err)
					}
					hsB := httptest.NewServer(srvB.Handler())
					defer hsB.Close()
					defer srvB.Close()
					body, status := sink.submit(t, hsB.URL)
					if status != http.StatusOK {
						t.Fatalf("resumed run returned %d: %s", status, body)
					}
					if !bytes.Equal(body, golden) {
						t.Fatalf("resumed artifact diverged from golden:\n got: %s\nwant: %s", body, golden)
					}

					// The terminal record compacts the journal: nothing left open.
					if st := srvB.journal.Stats(); st.OpenJobs != 0 {
						t.Fatalf("journal still holds %d open jobs after completion", st.OpenJobs)
					}
				})
			}
		}
	}
}

// TestSweepRejectsUnreadableLastSeq pins the resume-header contract: a
// Last-Seq the server cannot read as a non-negative integer answers 400
// before the journal is touched, instead of being taken for 0 and
// answered with a full replay that hides the client's bug.
func TestSweepRejectsUnreadableLastSeq(t *testing.T) {
	srv, err := NewServer(Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	raw, err := json.Marshal(resilienceSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"two", "1.5", "-1", "0x3", "99999999999999999999"} {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/sweep", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.HeaderLastSeq, v)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Seq %q answered %d, want 400: %.200s", v, resp.StatusCode, body)
		}
	}
	if st := srv.journal.Stats(); st.Appends != 0 || st.OpenJobs != 0 {
		t.Errorf("rejected sweeps reached the journal: %+v", st)
	}
}

// gatedWriter is a ResponseWriter whose body writes block until release
// closes; entered closes when the first one arrives. It pins a handler
// inside a write, the one place a streaming handler is busy rather than
// waiting on its next design point.
type gatedWriter struct {
	*httptest.ResponseRecorder
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.ResponseRecorder.Write(p)
}

// TestSweepCanceledPointIsNeverJournaled is the regression test for the
// poisoned-journal bug: a point that never ran because its request was
// canceled must not be journaled as a result — the journal key is
// content-derived, so every later identical sweep would replay the
// "canceled" error line forever. The window is a handler that is busy
// (here: pinned in the replay write of a resumed sweep) while the client
// goes away and the remaining points sit queued behind another tenant of
// the one-worker pool; when it next looks, "point finished" and "request
// canceled" are both true. The old per-endpoint loops picked between
// them at random (so each round below poisoned the journal half the
// time); the pipeline never records a context's error.
func TestSweepCanceledPointIsNeverJournaled(t *testing.T) {
	srv, client := testServer(t, Options{Workers: 1, CacheDir: t.TempDir(),
		Apps: map[string]App{"slow": slowApp()}})
	bg := context.Background()
	raw, err := json.Marshal(api.SweepRequest{App: "slow", Axes: []runner.Axis{
		{Param: "n", Values: []float64{100, 200, 300}}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context, w http.ResponseWriter) {
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(raw)).WithContext(ctx))
	}
	for round := 0; round < 6; round++ {
		// An open journal with one durable point: the second point's
		// append (hit 3) fails and aborts the first submission.
		installFaults(t, faultinject.MustSchedule(faultinject.Fault{
			Site: faultinject.SiteJournalAppend, Hit: 3, Kind: faultinject.KindError,
		}))
		post(bg, httptest.NewRecorder())
		faultinject.Install(nil)

		// Another tenant pins the only worker, so the resumed sweep's tail
		// stays queued.
		blocker, err := client.Analyze(bg, api.AnalyzeRequest{App: "slow", Async: true})
		if err != nil {
			t.Fatal(err)
		}
		// The resubmission is held inside the replay write of line 1 while
		// its client goes away; it is released once the blocker is done.
		ctx, cancel := context.WithCancel(bg)
		gw := &gatedWriter{ResponseRecorder: httptest.NewRecorder(),
			entered: make(chan struct{}), release: make(chan struct{})}
		returned := make(chan struct{})
		go func() { defer close(returned); post(ctx, gw) }()
		<-gw.entered
		cancel()
		if _, err := client.WaitJob(bg, blocker.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		close(gw.release)
		<-returned

		rec := httptest.NewRecorder()
		post(bg, rec)
		lines := decodeSweepLines(t, rec.Body.Bytes())
		if len(lines) != 3 {
			t.Fatalf("round %d: resubmission streamed %d lines, want 3: %s", round, len(lines), rec.Body)
		}
		for _, l := range lines {
			if l.Error != "" || l.Result == nil {
				t.Fatalf("round %d: point %d replays a cancellation as its result: %q", round, l.Index, l.Error)
			}
		}
	}
}

// TestSweepClientReconnectResumesExactlyOnce drives the client-side half
// of resume: a journal append failure aborts the stream mid-sweep, the
// retrying client reconnects with Last-Seq, the server replays the
// durable prefix, and emit observes every design point exactly once, in
// order, with the same content a never-interrupted daemon serves.
func TestSweepClientReconnectResumesExactlyOnce(t *testing.T) {
	goldenLines := decodeSweepLines(t, goldenSweepBytes(t))

	srv, client := testServer(t, Options{Workers: 2, CacheDir: t.TempDir()})
	client.Retries = 3
	client.RetryBaseDelay = time.Millisecond

	// Hit 3 = the second design point's record: point 0 is durable and
	// delivered, point 1 aborts the stream.
	installFaults(t, faultinject.MustSchedule(faultinject.Fault{
		Site: faultinject.SiteJournalAppend, Hit: 3, Kind: faultinject.KindError,
	}))

	var got []api.SweepLine
	err := client.Sweep(context.Background(), resilienceSweepReq(), func(l api.SweepLine) error {
		got = append(got, l)
		return nil
	})
	if err != nil {
		t.Fatalf("sweep with reconnect failed: %v", err)
	}
	if len(got) != len(goldenLines) {
		t.Fatalf("emit saw %d lines, want %d", len(got), len(goldenLines))
	}
	for i := range got {
		if got[i].Seq != int64(i+1) || got[i].Index != i {
			t.Fatalf("line %d out of order: seq=%d index=%d", i, got[i].Seq, got[i].Index)
		}
		if !sweepLinesEqual(got[i], goldenLines[i]) {
			t.Fatalf("line %d diverged across reconnect:\n got: %+v\nwant: %+v", i, got[i], goldenLines[i])
		}
	}
	if inj := faultinject.Installed().Injected(); inj != 1 {
		t.Fatalf("schedule fired %d times, want 1", inj)
	}
	if st := srv.journal.Stats(); st.Replays == 0 {
		t.Fatal("server never replayed the journal on reconnect")
	}
}

// decodeSweepLines parses a raw NDJSON stream into lines.
func decodeSweepLines(t *testing.T, raw []byte) []api.SweepLine {
	t.Helper()
	var out []api.SweepLine
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec api.SweepLine
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// sweepLinesEqual compares two lines through their canonical JSON — the
// representation the byte-identity contract is stated in.
func sweepLinesEqual(a, b api.SweepLine) bool {
	ra, _ := json.Marshal(a)
	rb, _ := json.Marshal(b)
	return bytes.Equal(ra, rb)
}

// TestClientHonorsRetryAfter checks that a 429 with a Retry-After hint
// actually delays the retry: the second attempt must not arrive before
// the hint elapses.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt time.Time
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAt = time.Now()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.ErrorBody{Error: "throttled", RetryAfterMS: 80})
		default:
			secondAt = time.Now()
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retries = 2
	c.RetryBaseDelay = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health never recovered: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2", n)
	}
	if wait := secondAt.Sub(firstAt); wait < 80*time.Millisecond {
		t.Fatalf("retry arrived after %v, want >= 80ms (Retry-After hint)", wait)
	}
}

// TestClientDoesNotRetryClientErrors checks the other half of the retry
// policy: a 400 is the server's final word and must not be retried,
// while a 503 retries up to the budget.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	status := http.StatusBadRequest
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpError(w, status, fmt.Errorf("no"))
	}))
	defer hs.Close()

	c := NewClient(hs.URL)
	c.Retries = 3
	c.RetryBaseDelay = time.Millisecond
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("400 reported as success")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("400 retried: server saw %d calls, want 1", n)
	}

	calls.Store(0)
	status = http.StatusServiceUnavailable
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("503 reported as success")
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("503 saw %d attempts, want 1 + 3 retries", n)
	}
}

// TestSweepRestartPreservesJobIDs pins the job-ID half of the
// byte-identity contract directly: the journaled acceptance reserves the
// ID block, so a daemon restarted mid-sweep labels resumed points with
// the original IDs and never re-issues them to later work.
func TestSweepRestartPreservesJobIDs(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	req := resilienceSweepReq()

	// Crash after two durable points (accept=1, points=2,3; hit 4 dies).
	installFaults(t, faultinject.MustSchedule(faultinject.Fault{
		Site: faultinject.SiteJournalAppend, Hit: 4, Kind: faultinject.KindCrash, Frac: 0.5,
	}))
	srvA, err := NewServer(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	postSweepRaw(t, hsA.URL, req)
	hsA.Close()
	srvA.Close()
	faultinject.Install(nil)

	srvB, err := NewServer(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	defer srvB.Close()

	// A job submitted before the resume must not collide with the
	// journal-pinned block job-1..job-4.
	c := NewClient(hsB.URL)
	lines := decodeSweepLines(t, mustOKSweep(t, hsB.URL, req))
	for i, line := range lines {
		if want := fmt.Sprintf("job-%d", i+1); line.JobID != want {
			t.Fatalf("resumed point %d labeled %q, want %q", i, line.JobID, want)
		}
	}
	info, err := c.Analyze(context.Background(), api.AnalyzeRequest{App: "lulesh"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "job-1" || info.ID == "job-2" || info.ID == "job-3" || info.ID == "job-4" {
		t.Fatalf("restarted daemon re-issued journaled job ID %s", info.ID)
	}
}

// mustOKSweep is postSweepRaw requiring a 200.
func mustOKSweep(t *testing.T, baseURL string, req api.SweepRequest) []byte {
	t.Helper()
	body, status := postSweepRaw(t, baseURL, req)
	if status != http.StatusOK {
		t.Fatalf("sweep returned %d: %s", status, body)
	}
	return body
}

// startJournaledCluster boots a coordinator (journal under dir) plus one
// worker with fast heartbeats and chaos-friendly shard timeouts.
func startJournaledCluster(t *testing.T, dir string) *Client {
	t.Helper()
	leakcheck.Check(t)
	coordSrv, err := NewServer(Options{
		Workers:           2,
		Coordinator:       true,
		CacheDir:          dir,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		ShardTimeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	chs := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() {
		chs.Close()
		coordSrv.Close()
	})
	wsrv, err := NewServer(Options{Workers: 2, HeartbeatInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	whs := httptest.NewServer(wsrv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	wsrv.StartWorkerLoop(ctx, chs.URL, whs.URL)
	t.Cleanup(func() {
		cancel()
		whs.Close()
		wsrv.Close()
	})
	client := NewClient(chs.URL)
	waitLiveWorkers(t, client, 1)
	return client
}

// chaosScheduleCount resolves how many seeded schedules the chaos gate
// sweeps: the CHAOS_SCHEDULES environment variable (CI pins 200), a
// small default locally, smaller still under -short.
func chaosScheduleCount(t *testing.T) int {
	if v := os.Getenv("CHAOS_SCHEDULES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SCHEDULES %q", v)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 25
}

// TestChaosSchedules is the chaos gate: for each seed, derive a fault
// schedule (disk tears, journal crashes, dropped dispatches, truncated
// shard streams, latency), run the reference sweep on a journaled
// coordinator+worker cluster through a retrying client, and assert the
// one invariant — the artifact is identical to an unfaulted run or the
// failure is a clean typed error; never a duplicate line, an
// out-of-order index, a corrupt journal, or a leaked goroutine.
func TestChaosSchedules(t *testing.T) {
	golden := decodeSweepLines(t, goldenSweepBytes(t))
	req := resilienceSweepReq()
	n := chaosScheduleCount(t)
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// Registered before the cluster (cleanups run LIFO): after every
			// node is down, the journal directory must still open cleanly.
			t.Cleanup(func() {
				if _, err := journal.Open(filepath.Join(dir, "journal")); err != nil {
					t.Errorf("seed %d left an unrecoverable journal: %v", seed, err)
				}
			})
			sched := faultinject.Random(int64(seed), 3)
			installFaults(t, sched)
			client := startJournaledCluster(t, dir)
			client.Retries = 8
			client.RetryBaseDelay = time.Millisecond

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			lines, err := client.SweepAll(ctx, req)
			if err != nil {
				// A clean typed error is an acceptable outcome; a partial
				// emit alongside it must still be a duplicate-free prefix.
				t.Logf("seed %d (%s): clean failure: %v", seed, sched, err)
			}
			seen := make(map[int]bool)
			for _, l := range lines {
				if seen[l.Index] {
					t.Fatalf("seed %d (%s): duplicate index %d", seed, sched, l.Index)
				}
				seen[l.Index] = true
			}
			if err == nil {
				if len(lines) != len(golden) {
					t.Fatalf("seed %d (%s): %d lines, want %d", seed, sched, len(lines), len(golden))
				}
				for i := range lines {
					got, want := lines[i], golden[i]
					// Job IDs may legitimately shift when a fault kills the
					// acceptance append before it is durable (the retry draws a
					// fresh block); everything else must match the golden run.
					got.JobID, want.JobID = "", ""
					if !sweepLinesEqual(got, want) {
						t.Fatalf("seed %d (%s): line %d diverged:\n got: %+v\nwant: %+v", seed, sched, i, got, want)
					}
				}
			}
		})
	}
}
