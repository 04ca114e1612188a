package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is shared, and what its neighbours take
// away is the memory system (the shared last-level cache, the bandwidth
// behind it): for minutes at a time every memory-bound program on it — the interpreter's shadow heap, the collector, JSON
// encoding — runs up to 1.8x slower, in wall-clock and CPU time alike,
// while a register-only loop does not notice. Ten runs of corpus-small
// across such a stretch spread (interquartile range / median) by 16-24%
// and their median sat 50% above a quiet stretch's: raw times cannot be
// held to any bound the driver accepts. The wall-clock of a fixed random
// walk over a table larger than the private caches follows that slowdown, so
// the gated times are reported at reference speed: measured x nominal /
// median walk (README.md has the measurements).
//
// Walks are taken by the harness only, on both processors, while no op
// is in flight and outside every timed interval: the walk never shares
// the machine with the code under test, so a change that makes an op
// use more processor time or memory bandwidth cannot slow the walk and
// hide behind it.

// table is what the walk touches: 32 MiB per walker. It is mapped
// outside the Go heap: inside it, it would be ballast that makes the
// collector run a tenth as often as it does in a real daemon.
var table = mapTable(8 << 20)

func mapTable(words int) []uint64 {
	raw, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: cannot map the calibration table: " + err.Error())
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), words)
}

func init() {
	for i := range table { // fault every page in
		table[i] = uint64(i)
	}
}

const (
	// walkSteps is the length of one walk, walkers how many goroutines
	// take it, each over its own part of the table.
	walkSteps = 400_000
	walkers   = 2
	// warmWalks is how many walks a pause throws away before the one it
	// keeps. The last-level cache here (260 MiB) holds the whole table
	// until somebody displaces it, and the ops just run displace it as
	// well as the neighbours do: right after an op the first walk took
	// 11 ms on lulesh-large and 8 ms on the daemons where the third took
	// 6.7 and 5.3. Two walks bring back what the program under test
	// displaced, so that the third meets what the neighbours do.
	warmWalks = 2
	// nominalWalkMS is how long the kept walk takes on the reference
	// machine (this 2-core box, quiet). It is frozen: changing it rescales
	// every reported time.
	nominalWalkMS = 5.0
)

// walk runs the calibration kernel once and returns its wall-clock in ms.
func walk() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < walkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := table[g*len(table)/walkers : (g+1)*len(table)/walkers]
			mask := uint64(len(part) - 1)
			x, s := uint64(t.UnixNano())|1, uint64(g)
			for i := 0; i < walkSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s += part[x&mask]
				part[(x>>24)&mask] = s
			}
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t))
}

// pause samples the box between two timed intervals: the wall-clock of
// one walk, in ms, after warmWalks discarded ones.
func pause() float64 {
	for i := 0; i < warmWalks; i++ {
		walk()
	}
	return walk()
}

// speed is the factor that turns times measured between the given pauses
// into reference-speed times: below 1 when the box is slower than the
// reference.
func speed(pauses []float64) float64 {
	return nominalWalkMS / median(pauses)
}
