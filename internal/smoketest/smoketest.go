// Package smoketest is the shared harness of the cmd/*smoke binaries:
// it spawns real perftaintd processes and waits on the things every
// smoke scenario waits on (a healthy daemon, live cluster workers, a
// /metrics scrape), so each binary holds only its scenario.
package smoketest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// builtDir is the temp dir buildDaemon compiled into, for Cleanup.
var builtDir string

// buildDaemon compiles ./cmd/perftaintd (relative to the working
// directory, i.e. the module root `go run ./cmd/...smoke` runs from) into
// a temp dir, once per smoke process however many daemons it spawns.
var buildDaemon = sync.OnceValues(func() (string, error) {
	var err error
	if builtDir, err = os.MkdirTemp("", "smoketest-bin-*"); err != nil {
		return "", err
	}
	path := filepath.Join(builtDir, "perftaintd")
	cmd := exec.Command("go", "build", "-o", path, "./cmd/perftaintd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("smoketest: build ./cmd/perftaintd: %w", err)
	}
	return path, nil
})

// Cleanup removes the daemon binary StartDaemon built, if it built one.
func Cleanup() {
	if builtDir != "" {
		os.RemoveAll(builtDir)
	}
}

// Daemon is one spawned perftaintd process.
type Daemon struct {
	// Addr is the host:port the daemon listens on; Base is its URL.
	Addr, Base string

	cmd *exec.Cmd
	// done closes once the process has been reaped; err is its exit
	// status from then on.
	done chan struct{}
	err  error
}

// StartDaemon spawns perftaintd and returns once it answers /healthz.
// bin is the binary to run; empty builds ./cmd/perftaintd first. addr is
// the listen address; empty picks a free localhost port (a fresh one per
// attempt), while a fixed address is retried until its previous owner
// has let go of it — restart scenarios reuse addresses. env entries are
// added to the daemon's environment and args to its command line. The
// daemon's output is relayed to stderr; ctx kills it.
func StartDaemon(ctx context.Context, bin, addr string, env []string, args ...string) (*Daemon, error) {
	if bin == "" {
		var err error
		if bin, err = buildDaemon(); err != nil {
			return nil, err
		}
	}
	var lastErr error
	for attempt := 0; attempt < 50 && ctx.Err() == nil; attempt++ {
		listen := addr
		if listen == "" {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("smoketest: reserve port: %w", err)
			}
			listen = l.Addr().String()
			l.Close()
		}
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", listen}, args...)...)
		cmd.Env = append(os.Environ(), env...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("smoketest: start %s: %w", bin, err)
		}
		d := &Daemon{Addr: listen, Base: "http://" + listen, cmd: cmd, done: make(chan struct{})}
		go func() {
			d.err = cmd.Wait()
			close(d.done)
		}()
		hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		lastErr = WaitHealthy(hctx, d.Base)
		cancel()
		if lastErr == nil {
			return d, nil
		}
		d.Kill()
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("smoketest: daemon never became healthy: %w", lastErr)
}

// Term asks the daemon to drain (SIGTERM) and waits for it to exit. A
// daemon that exits non-zero, or hangs for 30s and has to be killed, is
// an error.
func (d *Daemon) Term() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("daemon %s did not drain cleanly on SIGTERM: %w", d.Addr, d.err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.Kill()
		return fmt.Errorf("daemon %s hung on SIGTERM", d.Addr)
	}
}

// Kill SIGKILLs the daemon and reaps it.
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
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
			return fmt.Errorf("smoketest: %s: %w (last: %v)", what, ctx.Err(), err)
		case <-t.C:
		}
	}
}

// WaitHealthy polls base's /healthz until it answers 200 or ctx is done.
func WaitHealthy(ctx context.Context, base string) error {
	client := service.NewClient(base)
	return poll(ctx, "daemon "+base+" never became healthy", func() error {
		return client.Health(ctx)
	})
}

// WaitLiveWorkers polls the coordinator at base until at least n of its
// workers are live or ctx is done.
func WaitLiveWorkers(ctx context.Context, base string, n int) error {
	client := service.NewClient(base)
	return poll(ctx, fmt.Sprintf("cluster never reached %d live workers", n), func() error {
		st, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Cluster == nil || st.Cluster.LiveWorkers < n {
			return fmt.Errorf("cluster block %+v", st.Cluster)
		}
		return nil
	})
}

// ScrapeMetrics GETs base's /metrics, checks it is a Prometheus text
// exposition, writes it to the file out when out is non-empty (the CI
// artifact), and returns the text.
func ScrapeMetrics(ctx context.Context, base, out string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return "", fmt.Errorf("scrape /metrics: unexpected content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if out != "" {
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return "", err
		}
	}
	return string(raw), nil
}
