package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one set-up workload: daemons started, caches warm,
// references computed. All loops over it are closed: a client sends its
// next request when the previous one has been answered.
type instance interface {
	// op runs request i on client c and waits for its complete answer.
	// Cheap checks of the answer happen inline, as a real client parses
	// what it receives; an expensive check (recomputing a reference) is
	// returned and runs after the timed window.
	op(ctx context.Context, c, i int) (check func() error, err error)
	// extraction is the in-process equivalent of the model request op i
	// makes (or stands for): what the traced pass decomposes.
	extraction(i int) extraction
	// service describes the daemon under test; nil for an in-process
	// workload.
	service() *serviceView
	// finish checks what must hold once the window is over.
	finish(ctx context.Context) error
	// close stops every server and loop and removes temporary files.
	close()
}

// window is one timed closed-loop run.
type window struct {
	wall   time.Duration // summed over the stretches
	lat    []float64     // latencies of the answered and checked ops, ms
	cpu    time.Duration // process user+sys CPU, summed over the stretches
	alloc  uint64
	gcCPU  float64 // seconds of collector CPU
	speed  float64 // reference-speed factor from the pauses around the stretches
	failed int
	errs   []error
}

func (w *window) attempted() int { return len(w.lat) + w.failed }

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// slack is how far past its nominal length a window may run before it
// stops issuing ops: on a slow day a run does less work rather than
// overrun the driver's time cap.
const slack = 1.5

// stretchSeconds is the nominal length of one stretch of a window.
const stretchSeconds = 0.5

// drive runs ops first..first+ops-1 as a closed loop: clients goroutines
// draw op indices from one counter, each waiting for its answer before
// drawing again. The window is cut into stretches of about stretchSeconds;
// before, between and after them, with every client parked and no op in
// flight, the harness samples the box (pause). Wall-clock and CPU are
// summed over the stretches only. The window stops issuing ops once it has
// lasted slack x seconds. wrap, when non-nil, brackets every op (the traced
// pass opens a span there).
func drive(ctx context.Context, inst instance, clients, first, ops int, seconds float64, wrap func(i int, f func() error) error) *window {
	w := &window{}
	type answered struct {
		ms    float64
		i     int
		check func() error
	}
	var done []answered
	var next atomic.Int64
	var mu sync.Mutex
	deadline := time.Now().Add(time.Duration(slack * seconds * float64(time.Second)))

	// client runs ops until the counter reaches hi or the deadline passes.
	client := func(c, hi int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= hi || !time.Now().Before(deadline) {
				return
			}
			var check func() error
			run := func() (err error) {
				check, err = inst.op(ctx, c, i)
				return err
			}
			t := time.Now()
			var err error
			if wrap != nil {
				err = wrap(i, run)
			} else {
				err = run()
			}
			d := ms(time.Since(t))
			mu.Lock()
			if err != nil {
				w.fail(fmt.Errorf("op %d: %w", i, err))
			} else {
				done = append(done, answered{d, i, check})
			}
			mu.Unlock()
		}
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0, gc0 := mem.TotalAlloc, gcCPUSeconds()
	stretches := max(1, int(seconds/stretchSeconds+0.5))
	perStretch := max(clients, (ops+stretches-1)/stretches)
	var pauses []float64
	for lo := first; lo < first+ops && time.Now().Before(deadline); lo += perStretch {
		pauses = append(pauses, pause())
		next.Store(int64(lo))
		hi := min(lo+perStretch, first+ops)
		var wg sync.WaitGroup
		t, cpu := time.Now(), cpuTime()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, hi)
			}(c)
		}
		wg.Wait()
		w.wall += time.Since(t)
		w.cpu += cpuTime() - cpu
	}
	pauses = append(pauses, pause())
	w.speed = speed(pauses)
	w.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&mem)
	w.alloc = mem.TotalAlloc - alloc0

	// Deferred checks: an op whose answer turns out wrong is a failed op.
	for _, a := range done {
		if a.check != nil {
			if err := a.check(); err != nil {
				w.fail(fmt.Errorf("op %d: %w", a.i, err))
				continue
			}
		}
		w.lat = append(w.lat, a.ms)
	}
	if err := inst.finish(ctx); err != nil {
		w.fail(err)
	}
	return w
}

// endToEndValues derives the user-facing metrics of a window, times at
// reference speed; setupS is already so.
func endToEndValues(w *window, setupS float64) map[string]float64 {
	n := float64(max(len(w.lat), 1))
	return map[string]float64{
		"setup_s":         setupS,
		"op_ms_p50":       median(w.lat) * w.speed,
		"ops_per_s":       float64(len(w.lat)) / w.wall.Seconds() / w.speed,
		"cpu_ms_per_op":   ms(w.cpu) / n * w.speed,
		"alloc_mb_per_op": float64(w.alloc) / (1 << 20) / n,
	}
}

// clientValues are the reported-not-gated numbers of the same window.
func clientValues(w *window) map[string]float64 {
	gc := 0.0
	if w.cpu > 0 {
		gc = w.gcCPU / w.cpu.Seconds()
	}
	return map[string]float64{
		"client.ops":           float64(w.attempted()),
		"client.samples":       float64(len(w.lat)),
		"client.op_ms_p90":     quantile(w.lat, 0.9),
		"client.op_ms_min":     quantile(w.lat, 0),
		"client.op_ms_max":     quantile(w.lat, 1),
		"client.fail_share":    float64(w.failed) / float64(max(w.attempted(), 1)),
		"process.peak_rss_mb":  peakRSSMB(),
		"process.gc_cpu_share": gc,
		"process.speed":        w.speed,
	}
}
