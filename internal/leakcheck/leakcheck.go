// Package leakcheck is a dependency-free goroutine-leak assertion in
// the spirit of go.uber.org/goleak: snapshot the goroutines alive when
// a test registers the check, and fail the test if, after cleanup has
// torn everything down, goroutines this package does not recognize as
// benign runtime/testing infrastructure are still running.
//
// The server, coordinator, and worker shutdown paths are exactly where
// leaks hide (a drain that forgets a TTL watcher, a heartbeat loop that
// outlives its link), so every e2e test helper registers Check first —
// t.Cleanup runs LIFO, which places the leak scan after the servers'
// own Close cleanups.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// ignoredStacks are substrings identifying goroutines that are part of
// the runtime, the testing framework, or process-lifetime machinery —
// never leaks attributable to the code under test.
var ignoredStacks = []string{
	"testing.(*T).Run",
	"testing.Main",
	"testing.tRunner",
	"testing.runTests",
	"testing.(*M).before",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"signal.signal_recv",
	"os/signal.loop",
	"os/signal.NotifyContext",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).dialConn",
	"net/http/httptest.(*Server).goServe",
	"internal/poll.runtime_pollWait",
	"leakcheck.interesting",
	"leakcheck.Settle",
	"created by runtime",
}

// Check registers a cleanup on t that fails the test if goroutines
// other than recognized infrastructure are still alive once every later
// cleanup has run. Register it FIRST in a helper (before the cleanups
// that stop servers), so the LIFO cleanup order scans after shutdown.
func Check(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		if err := Settle(5 * time.Second); err != nil {
			t.Errorf("leakcheck: %v", err)
		}
	})
}

// Settle waits up to timeout for all interesting goroutines to exit and
// returns an error naming the survivors if any remain — the non-testing
// entry point cmd/smoke uses after tearing down a scenario's daemons.
func Settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var leaked []string
	for {
		leaked = interesting()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sort.Strings(leaked)
	return fmt.Errorf("%d leaked goroutine(s):\n%s", len(leaked), strings.Join(leaked, "\n---\n"))
}

// interesting returns the stacks of currently-running goroutines that
// are not on the ignore list.
func interesting() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
stacks:
	for _, st := range strings.Split(string(buf), "\n\n") {
		st = strings.TrimSpace(st)
		if st == "" {
			continue
		}
		for _, ign := range ignoredStacks {
			if strings.Contains(st, ign) {
				continue stacks
			}
		}
		out = append(out, st)
	}
	return out
}
