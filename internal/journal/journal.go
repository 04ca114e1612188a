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
	"time"

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

	mu     sync.Mutex
	locked map[string]bool

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
	s := &Store{dir: dir, locked: make(map[string]bool)}
	names, err := s.files()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		recs, torn, err := recoverFile(path)
		if err != nil {
			return nil, err
		}
		if torn > 0 {
			s.statMu.Lock()
			s.recoveredTails += uint64(torn)
			s.statMu.Unlock()
		}
		if n := len(recs); n > 0 && recs[n-1].Type == TypeDone {
			if err := s.compact(path); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
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
// lock, waiting (polling) while another goroutine holds the same job —
// the idempotent-submission rendezvous: a duplicate submission blocks
// until the first finishes, then resumes or replays from whatever the
// first left journaled. The returned Job is positioned after recovery:
// Accept/Points/Samples expose the durable prefix. A nil store returns
// a nil Job (journaling disabled), which every Job method tolerates.
func (s *Store) Acquire(ctx context.Context, kind, key string) (*Job, error) {
	if s == nil {
		return nil, nil
	}
	name := fileName(kind, key)
	for {
		s.mu.Lock()
		if !s.locked[name] {
			s.locked[name] = true
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
	j, err := s.openLocked(kind, key, name)
	if err != nil {
		s.unlock(name)
		return nil, err
	}
	return j, nil
}

func (s *Store) openLocked(kind, key, name string) (*Job, error) {
	path := filepath.Join(s.dir, name)
	recs, torn, err := recoverFile(path)
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		s.statMu.Lock()
		s.recoveredTails += uint64(torn)
		s.statMu.Unlock()
	}
	// A journal that already reached terminal state belongs to a finished
	// job whose results live in the caches; compact it and start fresh so
	// a re-submission after compaction-miss reruns cleanly.
	if n := len(recs); n > 0 && recs[n-1].Type == TypeDone {
		if err := s.compact(path); err != nil {
			return nil, err
		}
		recs = nil
	}
	recs = validPrefix(kind, key, recs)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", name, err)
	}
	// Rewrite the file to exactly the recovered prefix: recovery already
	// truncates torn frames, but a semantically-invalid suffix (e.g. an
	// out-of-order point) must also be dropped before appending resumes.
	var buf bytes.Buffer
	buf.WriteString(header)
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: re-encode: %w", err)
		}
		buf.Write(frame(payload))
	}
	if err := rewrite(f, buf.Bytes()); err != nil {
		f.Close()
		return nil, err
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

func (s *Store) unlock(name string) {
	s.mu.Lock()
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
// prefix, discarding (and truncating away) everything at and after the
// first torn or corrupt frame. A missing file is an empty journal. The
// second return is the number of discarded tails (0 or 1 per file, in
// practice).
func recoverFile(path string) ([]Record, int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: read %s: %w", filepath.Base(path), err)
	}
	if !bytes.HasPrefix(data, []byte(header)) {
		// Unrecognized content: treat the whole file as a torn tail.
		if len(data) == 0 {
			return nil, 0, nil
		}
		return nil, 1, truncateFile(path, 0)
	}
	body := data[len(header):]
	var recs []Record
	off := 0
	for off < len(body) {
		if len(body)-off < 8 {
			return recs, 1, truncateFile(path, int64(len(header)+off))
		}
		n := binary.LittleEndian.Uint32(body[off : off+4])
		sum := binary.LittleEndian.Uint32(body[off+4 : off+8])
		if n > maxPayload || len(body)-off-8 < int(n) {
			return recs, 1, truncateFile(path, int64(len(header)+off))
		}
		payload := body[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, 1, truncateFile(path, int64(len(header)+off))
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, 1, truncateFile(path, int64(len(header)+off))
		}
		recs = append(recs, rec)
		off += 8 + int(n)
	}
	return recs, 0, nil
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

// rewrite replaces f's content with data, fsyncs, and leaves the write
// offset at the end for subsequent appends.
func rewrite(f *os.File, data []byte) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if _, err := f.Seek(int64(len(data)), 0); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
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
