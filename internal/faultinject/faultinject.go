// Package faultinject is the deterministic fault-injection layer behind
// the daemon's durability guarantees: a seeded, schedule-driven registry
// of fault sites compiled into the hot paths that touch disks and wires
// (the diskcache write/read protocol, the journal append path, the
// cluster shard dispatch and its response stream).
//
// A Schedule names which occurrence of which site misbehaves and how
// ("the 2nd diskcache write is torn at 50%", "the 1st shard dispatch is
// dropped"), so a test — or a chaos sweep over hundreds of seeds — can
// replay the exact same failure at the exact same instant every run and
// assert the one invariant that matters: the caller either produces the
// byte-identical artifact or a clean typed error, never a corrupt entry,
// a duplicate stream line, or a hang.
//
// Injection is off unless a schedule is installed (Install, or the
// PERFTAINT_FAULTS environment variable parsed by InstallFromEnv), and a
// disabled Eval is one atomic load, so the sites cost nothing in
// production. Schedules are finite by construction: every fault names a
// specific hit count, so retry loops always converge past the faults.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected failure; callers and tests
// distinguish deliberate faults from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind names what an injected fault does at its site.
type Kind string

// The fault kinds a schedule can assign to a site. Sites interpret them
// against their own operation: a disk site tears bytes, a wire site
// drops or truncates a stream.
const (
	// KindError fails the operation outright with an ErrInjected-wrapped
	// error before any effect takes place.
	KindError Kind = "error"
	// KindTorn performs only Frac of the operation's bytes and then
	// pretends the write succeeded — the on-disk state a power loss
	// mid-write leaves behind for recovery code to detect.
	KindTorn Kind = "torn"
	// KindCrash performs Frac of the operation's bytes and then fails
	// with an ErrInjected-wrapped error — process death at that exact
	// record boundary, as observed by the survivor that restarts.
	KindCrash Kind = "crash"
	// KindDrop fails a network operation without attempting it, like a
	// connection refused or reset before the request left.
	KindDrop Kind = "drop"
	// KindTruncate cuts a response stream after Frac of its records.
	KindTruncate Kind = "truncate"
	// KindLatency delays the operation by Delay and then lets it proceed.
	KindLatency Kind = "latency"
)

// Fault site names. Every site compiled into the codebase is listed in
// Sites; schedules may only reference these.
const (
	// SiteDiskWrite is diskcache's entry-publication write (temp file +
	// sync + rename).
	SiteDiskWrite = "diskcache.write"
	// SiteDiskRead is diskcache's entry read-and-verify path.
	SiteDiskRead = "diskcache.read"
	// SiteJournalAppend is the job journal's record append (frame write +
	// fsync) — the scheduler's crash-at-journal-record boundary.
	SiteJournalAppend = "journal.append"
	// SiteDispatch is the coordinator's shard dispatch round-trip to a
	// worker.
	SiteDispatch = "coordinator.dispatch"
	// SiteShardStream is the worker's shard NDJSON response stream.
	SiteShardStream = "worker.shard"
)

// Sites lists every registered fault site, in canonical order; Random
// draws from it and Parse validates against it.
var Sites = []string{SiteDiskWrite, SiteDiskRead, SiteJournalAppend, SiteDispatch, SiteShardStream}

// Fault is one scheduled misbehavior: the Hit'th evaluation of Site
// (1-based, counted per site across the process) acts as Kind.
type Fault struct {
	// Site names the fault site (one of Sites).
	Site string
	// Hit is the 1-based site occurrence this fault fires on.
	Hit int
	// Kind selects the misbehavior.
	Kind Kind
	// Frac is the fraction of the operation performed before Torn, Crash,
	// or Truncate takes effect; 0 means the site's default (half).
	Frac float64
	// Delay is the injected latency for KindLatency.
	Delay time.Duration
}

// Schedule is a deterministic fault plan: a set of (site, hit) → fault
// rules plus the per-site occurrence counters that drive them. Safe for
// concurrent use.
type Schedule struct {
	mu       sync.Mutex
	rules    map[string]map[int]Fault
	counts   map[string]int
	injected uint64
}

// NewSchedule builds a schedule from explicit faults. Unknown sites are
// rejected so a typo'd schedule fails loudly instead of testing nothing.
func NewSchedule(faults ...Fault) (*Schedule, error) {
	s := &Schedule{rules: make(map[string]map[int]Fault), counts: make(map[string]int)}
	for _, f := range faults {
		if !knownSite(f.Site) {
			return nil, fmt.Errorf("faultinject: unknown site %q (sites: %v)", f.Site, Sites)
		}
		if f.Hit < 1 {
			return nil, fmt.Errorf("faultinject: fault at %s has hit %d, want >= 1", f.Site, f.Hit)
		}
		if s.rules[f.Site] == nil {
			s.rules[f.Site] = make(map[int]Fault)
		}
		s.rules[f.Site][f.Hit] = f
	}
	return s, nil
}

// MustSchedule is NewSchedule for test literals; it panics on the
// validation errors NewSchedule reports.
func MustSchedule(faults ...Fault) *Schedule {
	s, err := NewSchedule(faults...)
	if err != nil {
		panic(err)
	}
	return s
}

// Random derives a schedule of n faults from seed: sites, hit counts,
// kinds, and fractions are all drawn from one seeded stream, so the same
// seed always produces the same schedule — the unit a chaos sweep
// enumerates.
func Random(seed int64, n int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{KindError, KindTorn, KindCrash, KindDrop, KindTruncate, KindLatency}
	var faults []Fault
	for i := 0; i < n; i++ {
		site := Sites[rng.Intn(len(Sites))]
		f := Fault{
			Site: site,
			Hit:  1 + rng.Intn(4),
			Kind: kinds[rng.Intn(len(kinds))],
			Frac: 0.25 + 0.5*rng.Float64(),
		}
		// Only wire sites understand drop/truncate and only streams can be
		// cut; remap impossible combinations deterministically instead of
		// scheduling no-ops.
		switch site {
		case SiteDiskWrite, SiteDiskRead, SiteJournalAppend:
			switch f.Kind {
			case KindDrop, KindTruncate:
				f.Kind = KindError
			case KindLatency:
				f.Kind = KindCrash
			}
		case SiteDispatch, SiteShardStream:
			switch f.Kind {
			case KindTorn, KindCrash:
				f.Kind = KindTruncate
			}
		}
		if f.Kind == KindLatency {
			f.Delay = time.Duration(1+rng.Intn(50)) * time.Millisecond
		}
		faults = append(faults, f)
	}
	s, _ := NewSchedule(faults...) // generated faults are valid by construction
	return s
}

// Parse decodes the textual schedule format used by the
// PERFTAINT_FAULTS environment variable: semicolon-separated rules of
// the form "site@hit:kind[:frac]", e.g.
//
//	diskcache.write@2:torn:0.5;coordinator.dispatch@1:drop
func Parse(spec string) (*Schedule, error) {
	var faults []Fault
	for _, rule := range strings.Split(spec, ";") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		siteHit, rest, ok := strings.Cut(rule, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: want site@hit:kind[:frac]", rule)
		}
		site, hitStr, ok := strings.Cut(siteHit, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: missing @hit", rule)
		}
		hit, err := strconv.Atoi(hitStr)
		if err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: bad hit: %w", rule, err)
		}
		kindStr, fracStr, hasFrac := strings.Cut(rest, ":")
		f := Fault{Site: site, Hit: hit, Kind: Kind(kindStr)}
		switch f.Kind {
		case KindError, KindTorn, KindCrash, KindDrop, KindTruncate, KindLatency:
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown kind %q", rule, kindStr)
		}
		if hasFrac {
			if f.Kind == KindLatency {
				d, err := time.ParseDuration(fracStr)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad delay: %w", rule, err)
				}
				f.Delay = d
			} else {
				frac, err := strconv.ParseFloat(fracStr, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad frac: %w", rule, err)
				}
				f.Frac = frac
			}
		}
		faults = append(faults, f)
	}
	return NewSchedule(faults...)
}

// String renders the schedule back into the Parse format, so a
// generated schedule can cross a process boundary through the
// environment (cmd/smoke's chaos scenario hands Random schedules to real
// daemons this way).
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var rules []string
	for site, byHit := range s.rules {
		for hit, f := range byHit {
			r := fmt.Sprintf("%s@%d:%s", site, hit, f.Kind)
			switch {
			case f.Kind == KindLatency && f.Delay > 0:
				r += ":" + f.Delay.String()
			case f.Frac > 0:
				r += ":" + strconv.FormatFloat(f.Frac, 'g', -1, 64)
			}
			rules = append(rules, r)
		}
	}
	sort.Strings(rules)
	return strings.Join(rules, ";")
}

// Injected reports how many faults this schedule has fired so far.
func (s *Schedule) Injected() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// active is the process-wide installed schedule; nil means injection is
// off and every Eval is a single atomic load.
var active atomic.Pointer[Schedule]

// Install makes sched the process-wide fault plan (nil disables
// injection) and returns the previously installed schedule so tests can
// restore it.
func Install(sched *Schedule) *Schedule {
	return active.Swap(sched)
}

// Installed returns the currently installed schedule, nil when injection
// is off.
func Installed() *Schedule { return active.Load() }

// EnvVar is the environment variable InstallFromEnv reads a schedule
// spec from.
const EnvVar = "PERFTAINT_FAULTS"

// InstallFromEnv parses and installs the schedule in the EnvVar
// environment value (via lookup); an empty or absent value leaves
// injection off. The returned error reports a malformed spec — callers
// should fail loudly rather than run believing faults are armed.
func InstallFromEnv(value string) error {
	if value == "" {
		return nil
	}
	sched, err := Parse(value)
	if err != nil {
		return err
	}
	Install(sched)
	return nil
}

// Eval counts one occurrence of site against the installed schedule and
// returns the fault scheduled for it, if any. The false fast path is one
// atomic load, so sites stay free when injection is off.
func Eval(site string) (Fault, bool) {
	sched := active.Load()
	if sched == nil {
		return Fault{}, false
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	sched.counts[site]++
	f, ok := sched.rules[site][sched.counts[site]]
	if ok {
		sched.injected++
	}
	return f, ok
}

// Errf builds the clean typed error an injected failure surfaces as:
// always errors.Is(err, ErrInjected).
func Errf(f Fault) error {
	return fmt.Errorf("%w: %s at %s hit %d", ErrInjected, f.Kind, f.Site, f.Hit)
}

// Cut returns how much of an n-unit operation a Torn/Crash/Truncate
// fault performs before taking effect: Frac of n (default half),
// clamped to [0, n-1] so the fault always removes at least one unit.
func Cut(f Fault, n int) int {
	frac := f.Frac
	if frac <= 0 {
		frac = 0.5
	}
	k := int(frac * float64(n))
	if k >= n {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

func knownSite(site string) bool {
	for _, s := range Sites {
		if s == site {
			return true
		}
	}
	return false
}
