// Package journal is the daemon's durable job journal: an append-only,
// CRC-framed, fsynced record log under <cache-dir>/journal/, one file
// per in-flight job keyed by the job's content address
// (SpecDigest+DesignDigest). The scheduler journals job acceptance,
// each completed design-point result, and terminal state; a restarted
// daemon reloads open journals and resumes sweeps from the last
// journaled point instead of index 0, and the merged output stays
// byte-identical to an uninterrupted run because completed points are
// replayed from their journaled bytes.
//
// Two invariants define the package:
//
//  1. The journal is the source of truth for open jobs. A record is
//     only considered durable once its frame (length + CRC32 + payload)
//     has been written and the file fsynced; anything after the first
//     torn or corrupt frame is discarded on open (torn-tail recovery),
//     so a crash mid-append loses at most the record being written —
//     never an earlier one, and never the file's integrity.
//
//  2. Resume is invisible in the artifact. Journaled point records hold
//     the exact bytes the client stream carries, so replay + continue
//     concatenates to the same byte sequence an uninterrupted run
//     produces.
//
// A job journal that reaches its terminal record ("done") is compacted:
// the file is removed, because every result it holds is recoverable
// from the content-addressed caches. Journals therefore only accumulate
// for jobs that are genuinely open.
package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultinject"
)

// header is the first line of every journal file; a file that does not
// start with it is treated as damaged and restarted from empty.
const header = "perftaint-journal/1\n"

// Record kinds journaled over a job's lifetime.
const (
	// TypeAccept is the first record of every journal: the job's identity
	// and shape, written before any work runs.
	TypeAccept = "accept"
	// TypePoint records one completed sweep design point: its index and
	// the exact stream-line bytes the client saw (or will see on replay).
	TypePoint = "point"
	// TypeSample records one completed model-extraction design point: the
	// measured counters keyed by absolute design index, enough to re-feed
	// the fit pipeline deterministically.
	TypeSample = "sample"
	// TypeDone is the terminal record; a journal ending in it is compacted
	// (removed) because the job's results live in the content caches.
	TypeDone = "done"
)

// Job kinds (the Kind field of Record and the namespace of journal
// keys).
const (
	// KindSweep journals a streamed sweep (/v1/sweep).
	KindSweep = "sweep"
	// KindModel journals a model extraction (/v1/models).
	KindModel = "model"
)

// Record is one journaled event. A record's wire form is a CRC-framed
// JSON payload; unknown fields are preserved by consumers re-encoding
// raw bytes rather than round-tripping through this struct.
type Record struct {
	// Type is one of TypeAccept, TypePoint, TypeSample, TypeDone.
	Type string `json:"type"`
	// Kind (accept only) is the job kind, KindSweep or KindModel.
	Kind string `json:"kind,omitempty"`
	// Key (accept only) is the job's content address.
	Key string `json:"key,omitempty"`
	// App (accept only) names the application.
	App string `json:"app,omitempty"`
	// SpecDigest (accept only) pins the prepared spec content.
	SpecDigest string `json:"spec_digest,omitempty"`
	// N (accept only) is the design size the job was accepted with.
	N int `json:"n,omitempty"`
	// FirstJobID (sweep accept only) is the numeric scheduler ID reserved
	// for design point 0; points i maps to job-(FirstJobID+i).
	FirstJobID uint64 `json:"first_job_id,omitempty"`
	// Index (point/sample) is the absolute design-point index.
	Index int `json:"index,omitempty"`
	// Line (point only) is the exact NDJSON stream line for the point,
	// without the trailing newline.
	Line json.RawMessage `json:"line,omitempty"`
	// Iterations (sample only) is the per-function iteration census.
	Iterations map[string]int64 `json:"iterations,omitempty"`
	// Instructions (sample only) is the interpreter instruction count.
	Instructions int64 `json:"instructions,omitempty"`
}

// Stats is a point-in-time snapshot of journal activity, exported via
// /v1/stats and /metrics.
type Stats struct {
	// OpenJobs is the number of journal files currently on disk (jobs
	// accepted but not yet terminal).
	OpenJobs int `json:"open_jobs"`
	// Bytes is the total size of all open journal files.
	Bytes int64 `json:"bytes"`
	// Appends counts records durably appended since open.
	Appends uint64 `json:"appends"`
	// Replays counts jobs resumed from a non-empty journal since open.
	Replays uint64 `json:"replays"`
	// RecoveredTails counts torn or corrupt frames discarded during
	// recovery since open.
	RecoveredTails uint64 `json:"recovered_tails"`
	// Compactions counts terminal journals removed since open.
	Compactions uint64 `json:"compactions"`
}

// Store manages the journal directory: one WAL file per open job,
// exclusive per-key acquisition, and recovery on open. Safe for
// concurrent use. A nil Store is valid and journals nothing (Acquire
// returns a nil Job, whose methods are all no-ops).
type Store struct {
	dir string

	mu sync.Mutex
	// locked holds one channel per acquired journal file name, closed
	// when its holder lets go: what a duplicate submission waits on.
	locked map[string]chan struct{}

	statMu         sync.Mutex
	appends        uint64
	replays        uint64
	recoveredTails uint64
	compactions    uint64
}

// Open creates (if needed) and scans the journal directory, recovering
// torn tails in every journal file and compacting any that already hold
// a terminal record — the restart path that turns crashed jobs back
// into resumable ones.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	s := &Store{dir: dir, locked: make(map[string]chan struct{})}
	names, err := s.files()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if _, _, err := s.load(path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load is recoverFile plus the store's bookkeeping: it counts a
// discarded tail and compacts a journal that already reached its
// terminal record, which then reads as empty.
func (s *Store) load(path string) ([]Record, []int64, error) {
	recs, ends, torn, err := recoverFile(path)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		s.statMu.Lock()
		s.recoveredTails++
		s.statMu.Unlock()
	}
	if n := len(recs); n > 0 && recs[n-1].Type == TypeDone {
		return nil, nil, s.compact(path)
	}
	return recs, ends, nil
}

// Stats snapshots journal counters and walks the directory for open-job
// count and byte size. Nil-safe: a nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	var st Stats
	names, err := s.files()
	if err == nil {
		st.OpenJobs = len(names)
		for _, name := range names {
			if fi, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
				st.Bytes += fi.Size()
			}
		}
	}
	s.statMu.Lock()
	st.Appends = s.appends
	st.Replays = s.replays
	st.RecoveredTails = s.recoveredTails
	st.Compactions = s.compactions
	s.statMu.Unlock()
	return st
}

// Acquire opens the journal for (kind, key) with an exclusive per-key
// lock, waiting while another goroutine holds the same job — the
// idempotent-submission rendezvous: a duplicate submission blocks until
// the first lets go (or ctx dies), then resumes or replays from whatever
// the first left journaled. The returned Job is positioned after
// recovery: Accept/Points/Samples expose the durable prefix. A nil store
// returns a nil Job (journaling disabled), which every Job method
// tolerates.
func (s *Store) Acquire(ctx context.Context, kind, key string) (*Job, error) {
	if s == nil {
		return nil, nil
	}
	name := fileName(kind, key)
	for {
		s.mu.Lock()
		held, ok := s.locked[name]
		if !ok {
			s.locked[name] = make(chan struct{})
		}
		s.mu.Unlock()
		if !ok {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-held:
		}
	}
	j, err := s.openLocked(kind, key, name)
	if err != nil {
		s.unlock(name)
		return nil, err
	}
	return j, nil
}

// openLocked recovers the journal and opens it for appending. A valid
// journal's bytes are left exactly as they are: only a torn tail or a
// semantically invalid suffix (e.g. an out-of-order point) is cut, at
// its offset, and only an empty file is given the header.
func (s *Store) openLocked(kind, key, name string) (*Job, error) {
	path := filepath.Join(s.dir, name)
	// A journal that already reached terminal state belongs to a finished
	// job whose results live in the caches; load compacts it, so a
	// re-submission after compaction-miss starts fresh and reruns cleanly.
	recs, ends, err := s.load(path)
	if err != nil {
		return nil, err
	}
	if keep := validPrefix(kind, key, recs); len(keep) < len(recs) {
		cut := int64(len(header))
		if len(keep) > 0 {
			cut = ends[len(keep)-1]
		}
		if err := truncateFile(path, cut); err != nil {
			return nil, err
		}
		recs = keep
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", name, err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		_, err = f.WriteString(header)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: open %s: %w", name, err)
	}
	if len(recs) > 0 {
		s.statMu.Lock()
		s.replays++
		s.statMu.Unlock()
	}
	return &Job{store: s, name: name, path: path, f: f, recs: recs}, nil
}

// files lists journal file names in the store directory.
func (s *Store) files() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: read dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// compact removes a terminal journal file and fsyncs the directory so
// the removal itself is durable.
func (s *Store) compact(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: compact: %w", err)
	}
	syncDir(s.dir)
	s.statMu.Lock()
	s.compactions++
	s.statMu.Unlock()
	return nil
}

// unlock lets go of name and wakes whoever waits for it.
func (s *Store) unlock(name string) {
	s.mu.Lock()
	close(s.locked[name])
	delete(s.locked, name)
	s.mu.Unlock()
}

// Job is one acquired journal: the recovered record prefix plus an
// append handle. Not safe for concurrent use; the owning request
// serializes access. All methods tolerate a nil receiver (journaling
// disabled).
type Job struct {
	store  *Store
	name   string
	path   string
	f      *os.File
	recs   []Record
	closed bool
}

// Accept returns the journal's accept record, if the job was previously
// accepted (i.e. this acquisition is a resume).
func (j *Job) Accept() (Record, bool) {
	if j == nil || len(j.recs) == 0 || j.recs[0].Type != TypeAccept {
		return Record{}, false
	}
	return j.recs[0], true
}

// Points returns the journaled completed design points, in index order
// (a contiguous prefix 0..n-1 by construction).
func (j *Job) Points() []Record {
	return j.ofType(TypePoint)
}

// Samples returns the journaled completed model samples, in index order.
func (j *Job) Samples() []Record {
	return j.ofType(TypeSample)
}

func (j *Job) ofType(t string) []Record {
	if j == nil {
		return nil
	}
	var out []Record
	for _, r := range j.recs {
		if r.Type == t {
			out = append(out, r)
		}
	}
	return out
}

// Append durably journals one record: frame, write, fsync — the record
// is not acknowledged (and must not be exposed to the client) until
// Append returns nil. Fault site "journal.append" can fail the append
// cleanly (error) or tear it mid-frame (crash/torn), which recovery
// discards on the next open.
func (j *Job) Append(rec Record) error {
	if j == nil {
		return nil
	}
	if j.closed {
		return errors.New("journal: append to closed job")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	fr := frame(payload)
	if f, ok := faultinject.Eval(faultinject.SiteJournalAppend); ok {
		switch f.Kind {
		case faultinject.KindError:
			return faultinject.Errf(f)
		case faultinject.KindTorn, faultinject.KindCrash:
			// Simulate death mid-frame: a prefix of the frame reaches the
			// file, nothing is synced, and the caller sees a failure. The
			// torn tail is exactly what recovery must discard.
			cut := faultinject.Cut(f, len(fr))
			j.f.Write(fr[:cut]) //nolint:errcheck // injected partial write; error path is the injection itself
			return faultinject.Errf(f)
		}
	}
	if _, err := j.f.Write(fr); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.recs = append(j.recs, rec)
	j.store.statMu.Lock()
	j.store.appends++
	j.store.statMu.Unlock()
	return nil
}

// Done appends the terminal record, compacts the journal file, and
// releases the job — the happy-path close. If the terminal append
// fails, the journal stays open (resumable) and the error is returned.
func (j *Job) Done() error {
	if j == nil {
		return nil
	}
	if err := j.Append(Record{Type: TypeDone}); err != nil {
		return err
	}
	j.f.Close()
	j.closed = true
	if err := j.store.compact(j.path); err != nil {
		j.store.unlock(j.name)
		return err
	}
	j.store.unlock(j.name)
	return nil
}

// Release closes the append handle and releases the per-key lock
// without touching the file — the crash/error path close. The journal
// remains on disk for the next acquisition to resume. Idempotent, and
// safe after Done.
func (j *Job) Release() {
	if j == nil || j.closed {
		return
	}
	j.closed = true
	j.f.Close()
	j.store.unlock(j.name)
}

// fileName maps a (kind, key) to its journal file name. Keys are hex
// digests, so the name needs no escaping.
func fileName(kind, key string) string {
	return kind + "-" + key + ".wal"
}

// frame wraps a payload in the WAL frame: 4-byte little-endian length,
// 4-byte CRC32 (IEEE) of the payload, payload bytes.
func frame(payload []byte) []byte {
	fr := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(fr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fr[4:8], crc32.ChecksumIEEE(payload))
	copy(fr[8:], payload)
	return fr
}

// maxPayload bounds a frame's declared length so a corrupt length field
// cannot drive a giant allocation; journal payloads are single JSON
// stream lines, far below this.
const maxPayload = 16 << 20

// recoverFile reads a journal file and returns the durable record
// prefix with the file offset each record's frame ends at, discarding
// (and truncating away) everything at and after the first torn or
// corrupt frame; torn reports that there was such a tail. A missing
// file is an empty journal; a file that does not start with the header
// is all tail.
func recoverFile(path string) (recs []Record, ends []int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("journal: read %s: %w", filepath.Base(path), err)
	}
	if !bytes.HasPrefix(data, []byte(header)) {
		return nil, nil, true, truncateFile(path, 0)
	}
	off := len(header)
	for off < len(data) {
		rec, n, ok := readFrame(data[off:])
		if !ok {
			return recs, ends, true, truncateFile(path, int64(off))
		}
		off += n
		recs = append(recs, rec)
		ends = append(ends, int64(off))
	}
	return recs, ends, false, nil
}

// readFrame decodes the frame at the start of b and returns its record
// and length; ok is false for a short, oversized, corrupt or undecodable
// frame.
func readFrame(b []byte) (rec Record, n int, ok bool) {
	if len(b) < 8 {
		return rec, 0, false
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > maxPayload || len(b)-8 < int(size) {
		return rec, 0, false
	}
	payload := b[8 : 8+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return rec, 0, false
	}
	return rec, 8 + int(size), json.Unmarshal(payload, &rec) == nil
}

// validPrefix drops records that violate the journal's semantic shape:
// the first record must be an accept for this (kind, key), and
// point/sample indices must advance contiguously from 0. Everything
// from the first violation on is discarded — the job simply resumes
// from earlier.
func validPrefix(kind, key string, recs []Record) []Record {
	if len(recs) == 0 {
		return nil
	}
	if recs[0].Type != TypeAccept || recs[0].Kind != kind || recs[0].Key != key {
		return nil
	}
	out := recs[:1]
	next := 0
	for _, r := range recs[1:] {
		switch r.Type {
		case TypePoint, TypeSample:
			if r.Index != next {
				return out
			}
			next++
		default:
			return out
		}
		out = append(out, r)
	}
	return out
}

// truncateFile cuts a file at off and fsyncs it, removing a torn tail
// durably.
func truncateFile(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: truncate %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("journal: truncate %s: %w", filepath.Base(path), err)
	}
	return f.Sync()
}

// syncDir fsyncs a directory so entry creations/removals inside it are
// durable; best-effort because not every platform supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort durability barrier
	d.Close()
}
