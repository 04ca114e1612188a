package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// harness is what one scenario runs against: the daemon binary under
// test, a scratch directory that is removed afterwards, and every
// perftaintd process the scenario spawned, so that whatever it leaves
// running — on success or on an early error return — is drained by
// teardown instead of by per-scenario cleanup code.
type harness struct {
	bin        string // perftaintd binary under test
	root       string // scratch directory for cache dirs
	metricsOut string // file every scrape is written to; "" = none
	daemons    []*daemon
}

// daemon is one spawned perftaintd process.
type daemon struct {
	// addr is the host:port the daemon listens on, base its URL, and
	// client a plain (non-retrying) client for it.
	addr, base string
	client     *service.Client

	cmd *exec.Cmd
	// done closes once the process has been reaped; err is its exit
	// status from then on.
	done chan struct{}
	err  error
	// stopped records that the scenario itself ended the process (term
	// or kill), so teardown has nothing left to require of it.
	stopped bool
}

// start spawns perftaintd and returns once it answers /healthz. addr is
// the listen address; empty picks a free localhost port (a fresh one per
// attempt), while a fixed address is retried until its previous owner
// has let go of it — restart scenarios reuse addresses. env entries are
// added to the daemon's environment and args to its command line. The
// daemon's output is relayed to stderr; ctx kills it.
func (h *harness) start(ctx context.Context, addr string, env []string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 50 && ctx.Err() == nil; attempt++ {
		listen := addr
		if listen == "" {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve port: %w", err)
			}
			listen = l.Addr().String()
			l.Close()
		}
		cmd := exec.CommandContext(ctx, h.bin, append([]string{"-addr", listen}, args...)...)
		cmd.Env = append(os.Environ(), env...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", h.bin, err)
		}
		d := &daemon{addr: listen, base: "http://" + listen, cmd: cmd, done: make(chan struct{})}
		d.client = service.NewClient(d.base)
		go func() {
			d.err = cmd.Wait()
			close(d.done)
		}()
		hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		lastErr = poll(hctx, "daemon "+d.base+" never became healthy", func() error {
			return d.client.Health(hctx)
		})
		cancel()
		if lastErr == nil {
			h.daemons = append(h.daemons, d)
			return d, nil
		}
		d.kill()
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("daemon never became healthy: %w", lastErr)
}

// cluster spawns a coordinator with the command line coordArgs plus n
// workers joined to it (each with workerArgs), and returns once all n
// are live.
func (h *harness) cluster(ctx context.Context, n int, env, coordArgs, workerArgs []string) (*daemon, []*daemon, error) {
	coord, err := h.start(ctx, "", env, coordArgs...)
	if err != nil {
		return nil, nil, fmt.Errorf("start coordinator: %w", err)
	}
	workers := make([]*daemon, n)
	for i := range workers {
		args := append([]string{"-join", coord.base}, workerArgs...)
		if workers[i], err = h.start(ctx, "", env, args...); err != nil {
			return nil, nil, fmt.Errorf("start worker %d: %w", i, err)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err = poll(wctx, fmt.Sprintf("cluster never reached %d live workers", n), func() error {
		st, err := coord.client.Stats(wctx)
		if err != nil {
			return err
		}
		if st.Cluster == nil || st.Cluster.LiveWorkers < n {
			return fmt.Errorf("cluster block %+v", st.Cluster)
		}
		return nil
	})
	return coord, workers, err
}

// term asks the daemon to drain (SIGTERM) and waits for it to exit. A
// daemon that exits non-zero, or hangs for 30s and has to be killed, is
// an error.
func (d *daemon) term() error {
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already reaped, which done reports
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("daemon %s did not drain cleanly on SIGTERM: %w", d.addr, d.err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon %s hung on SIGTERM", d.addr)
	}
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() {
	d.stopped = true
	_ = d.cmd.Process.Kill() // as in term
	<-d.done
}

// teardown drains every daemon the scenario has not stopped itself,
// workers before the coordinator they joined (reverse start order), and
// removes the scratch directory. A daemon that died on its own or does
// not drain cleanly fails the scenario.
func (h *harness) teardown() error {
	var errs []error
	for i := len(h.daemons) - 1; i >= 0; i-- {
		if d := h.daemons[i]; !d.stopped {
			errs = append(errs, d.term())
		}
	}
	return errors.Join(append(errs, os.RemoveAll(h.root))...)
}

// poll calls ok every 25ms until it returns nil or ctx is done, and then
// reports ok's last error.
func poll(ctx context.Context, what string, ok func() error) error {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		err := ok()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w (last: %v)", what, ctx.Err(), err)
		case <-t.C:
		}
	}
}

// okBody is the "endpoint answers status" gate on one raw request: the
// response must be 200 OK, and its body and content type are returned.
// The requests carry no context of their own: the daemon they go to dies
// with the scenario's.
func okBody(resp *http.Response, err error) (body []byte, contentType string, _ error) {
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s answered %s: %s", resp.Request.Method, resp.Request.URL, resp.Status, body)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// scrape GETs d's /metrics, requires a Prometheus text exposition,
// writes it to the -metrics-out file if one was given (the CI artifact;
// the last scrape wins), and returns the text.
func (h *harness) scrape(d *daemon) (string, error) {
	raw, ct, err := okBody(http.Get(d.base + "/metrics"))
	if err != nil {
		return "", fmt.Errorf("scrape /metrics: %w", err)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return "", fmt.Errorf("scrape /metrics: unexpected content type %q", ct)
	}
	if h.metricsOut != "" {
		log.Printf("writing the /metrics scrape of %s to %s", d.base, h.metricsOut)
		if err := os.WriteFile(h.metricsOut, raw, 0o644); err != nil {
			return "", err
		}
	}
	return string(raw), nil
}

// requireMetric is the "counter satisfies" gate on a /metrics exposition:
// the first sample of name — a bare family name, or one with its label
// set spelled out as exposed — must be present, parse, and pass ok.
func requireMetric(metrics, name string, ok func(float64) bool) error {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			return fmt.Errorf("unparseable metric line %q: %w", line, err)
		}
		if !ok(v) {
			return fmt.Errorf("metric %s = %v violates the gate", name, v)
		}
		return nil
	}
	return fmt.Errorf("metric %s missing from /metrics", name)
}

// sameBytes is the "bytes identical to reference" gate; a mismatch
// reports where the two first part ways.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	around := func(b []byte) []byte { return b[max(0, i-40):min(len(b), i+40)] }
	return fmt.Errorf("%s diverged from its reference at byte %d (%d vs %d bytes):\n got: …%s…\nwant: …%s…",
		what, i, len(got), len(want), around(got), around(want))
}

// unless is a gate on a value the scenario holds (a /v1/stats field, a
// response): nil if ok, the formatted complaint otherwise. Scenarios
// errors.Join a block of gates so every broken one is reported.
func unless(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
