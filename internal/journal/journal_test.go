package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func acquire(t *testing.T, s *Store, kind, key string) *Job {
	t.Helper()
	j, err := s.Acquire(context.Background(), kind, key)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestRoundTripAndResume(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)

	j := acquire(t, s, KindSweep, "abc123")
	if _, ok := j.Accept(); ok {
		t.Fatal("fresh journal should have no accept")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(Record{Type: TypeAccept, Kind: KindSweep, Key: "abc123", App: "lulesh", N: 3, FirstJobID: 7}))
	must(j.Append(Record{Type: TypePoint, Index: 0, Line: json.RawMessage(`{"seq":1}`)}))
	must(j.Append(Record{Type: TypePoint, Index: 1, Line: json.RawMessage(`{"seq":2}`)}))
	j.Release()

	// Reopen the whole store (simulated restart) and resume.
	s2 := open(t, dir)
	if st := s2.Stats(); st.OpenJobs != 1 {
		t.Fatalf("OpenJobs = %d, want 1", st.OpenJobs)
	}
	j2 := acquire(t, s2, KindSweep, "abc123")
	acc, ok := j2.Accept()
	if !ok || acc.App != "lulesh" || acc.N != 3 || acc.FirstJobID != 7 {
		t.Fatalf("accept = %+v ok=%v", acc, ok)
	}
	pts := j2.Points()
	if len(pts) != 2 || pts[0].Index != 0 || pts[1].Index != 1 {
		t.Fatalf("points = %+v", pts)
	}
	if string(pts[1].Line) != `{"seq":2}` {
		t.Fatalf("line bytes not preserved: %q", pts[1].Line)
	}
	must(j2.Append(Record{Type: TypePoint, Index: 2, Line: json.RawMessage(`{"seq":3}`)}))
	if err := j2.Done(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.OpenJobs != 0 || st.Compactions != 1 {
		t.Fatalf("after Done: %+v, want 0 open / 1 compaction", st)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j := acquire(t, s, KindSweep, "k1")
	if err := j.Append(Record{Type: TypeAccept, Kind: KindSweep, Key: "k1", N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypePoint, Index: 0, Line: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	j.Release()

	// Tear the tail: append half a frame, as a crash mid-append would.
	path := filepath.Join(dir, fileName(KindSweep, "k1"))
	fr := frame([]byte(`{"type":"point","index":1}`))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(fr[:len(fr)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir)
	if st := s2.Stats(); st.RecoveredTails != 1 {
		t.Fatalf("RecoveredTails = %d, want 1", st.RecoveredTails)
	}
	j2 := acquire(t, s2, KindSweep, "k1")
	if got := len(j2.Points()); got != 1 {
		t.Fatalf("points after torn-tail recovery = %d, want 1", got)
	}
	j2.Release()
}

func TestCorruptHeaderRestartsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, fileName(KindModel, "k2"))
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	j := acquire(t, s, KindModel, "k2")
	if _, ok := j.Accept(); ok {
		t.Fatal("corrupt journal must restart empty")
	}
	j.Release()
}

func TestSemanticPrefixValidation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j := acquire(t, s, KindSweep, "k3")
	appendAll(t, j,
		Record{Type: TypeAccept, Kind: KindSweep, Key: "k3", N: 5},
		Record{Type: TypePoint, Index: 0},
		Record{Type: TypePoint, Index: 3}, // gap: invalid from here on
	)
	j.Release()

	j2 := acquire(t, open(t, dir), KindSweep, "k3")
	if got := len(j2.Points()); got != 1 {
		t.Fatalf("out-of-order suffix must be dropped; points = %d, want 1", got)
	}
	j2.Release()

	// Accept under the wrong key is discarded entirely.
	j3 := acquire(t, open(t, dir), KindSweep, "other")
	if _, ok := j3.Accept(); ok {
		t.Fatal("accept for a different key must not be visible")
	}
	j3.Release()
}

// TestAcquireLeavesValidJournalUntouched pins invariant 1 at open: a
// journal whose every record is valid is not rewritten, so a crash
// during Acquire cannot lose a durable record, and a field this build
// does not know survives (re-encoding through Record would drop it).
func TestAcquireLeavesValidJournalUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, fileName(KindSweep, "k8"))
	before := []byte(header)
	before = append(before, frame([]byte(`{"type":"accept","kind":"sweep","key":"k8","n":2,"request_id":"r-1"}`))...)
	before = append(before, frame([]byte(`{"type":"point","line":{"seq":1},"extra":[1,2]}`))...)
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	j := acquire(t, open(t, dir), KindSweep, "k8")
	if got := len(j.Points()); got != 1 {
		t.Fatalf("points = %d, want 1", got)
	}
	j.Release()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Acquire + Release changed a valid journal:\n%q\n%q", before, after)
	}
}

// TestSemanticCutIsDurable: the invalid suffix is cut from the file, at
// its offset, not merely hidden — the next open sees nothing to cut and
// an append lands right after the kept prefix.
func TestSemanticCutIsDurable(t *testing.T) {
	dir := t.TempDir()
	j := acquire(t, open(t, dir), KindSweep, "k9")
	appendAll(t, j,
		Record{Type: TypeAccept, Kind: KindSweep, Key: "k9", N: 5},
		Record{Type: TypePoint, Index: 0},
	)
	path := filepath.Join(dir, fileName(KindSweep, "k9"))
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, Record{Type: TypePoint, Index: 3}, Record{Type: TypePoint, Index: 1})
	j.Release()

	j2 := acquire(t, open(t, dir), KindSweep, "k9")
	if got, _ := os.ReadFile(path); !bytes.Equal(got, kept) {
		t.Fatalf("file is %d bytes after the cut, want the %d-byte valid prefix", len(got), len(kept))
	}
	appendAll(t, j2, Record{Type: TypePoint, Index: 1})
	j2.Release()

	s3 := open(t, dir)
	j3 := acquire(t, s3, KindSweep, "k9")
	defer j3.Release()
	if pts := j3.Points(); len(pts) != 2 || pts[1].Index != 1 {
		t.Fatalf("points after cut + append + reopen = %+v, want indices 0, 1", pts)
	}
	if st := s3.Stats(); st.RecoveredTails != 0 {
		t.Fatalf("reopen found %d torn tail(s) after a clean cut", st.RecoveredTails)
	}
}

// TestAcquireWakesOnRelease: a duplicate submission is handed the key
// when its holder lets go (Release or Done), not at the next poll tick.
func TestAcquireWakesOnRelease(t *testing.T) {
	s := open(t, t.TempDir())
	for _, finish := range []func(*Job){(*Job).Release, func(j *Job) { _ = j.Done() }} {
		j := acquire(t, s, KindModel, "k10")
		appendAll(t, j, Record{Type: TypeAccept, Kind: KindModel, Key: "k10", N: 1})
		got := make(chan *Job)
		for i := 0; i < 3; i++ {
			go func() {
				j, err := s.Acquire(context.Background(), KindModel, "k10")
				if err != nil {
					t.Error(err)
				}
				got <- j
			}()
		}
		select {
		case <-got:
			t.Fatal("a held key was acquired twice")
		case <-time.After(20 * time.Millisecond):
		}
		finish(j)
		// The waiters take the key one after another.
		for i := 0; i < 3; i++ {
			select {
			case w := <-got:
				w.Release()
			case <-time.After(5 * time.Second):
				t.Fatal("a waiter was not woken")
			}
		}
	}
}

func TestOpenCompactsTerminalJournals(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j := acquire(t, s, KindSweep, "k4")
	appendAll(t, j,
		Record{Type: TypeAccept, Kind: KindSweep, Key: "k4", N: 1},
		Record{Type: TypePoint, Index: 0},
		Record{Type: TypeDone},
	)
	j.Release() // left on disk with a terminal record (Done() not used)

	s2 := open(t, dir)
	if st := s2.Stats(); st.OpenJobs != 0 || st.Compactions != 1 {
		t.Fatalf("terminal journal must be compacted on open: %+v", st)
	}
}

func TestAcquireLockExcludes(t *testing.T) {
	s := open(t, t.TempDir())
	j := acquire(t, s, KindSweep, "k5")

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if _, err := s.Acquire(ctx, KindSweep, "k5"); err == nil {
		t.Fatal("second acquire of a held key should block until ctx death")
	}

	// Different key is independent.
	j6 := acquire(t, s, KindSweep, "k6")
	j6.Release()

	j.Release()
	j2 := acquire(t, s, KindSweep, "k5") // released: acquirable again
	j2.Release()
}

func TestInjectedAppendFaults(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j := acquire(t, s, KindSweep, "k7")
	if err := j.Append(Record{Type: TypeAccept, Kind: KindSweep, Key: "k7", N: 2}); err != nil {
		t.Fatal(err)
	}

	prev := faultinject.Install(faultinject.MustSchedule(
		faultinject.Fault{Site: faultinject.SiteJournalAppend, Hit: 1, Kind: faultinject.KindCrash, Frac: 0.5},
	))
	err := j.Append(Record{Type: TypePoint, Index: 0, Line: json.RawMessage(`{"x":1}`)})
	faultinject.Install(prev)
	if err == nil {
		t.Fatal("injected crash must surface as an error")
	}
	j.Release()

	// The torn half-frame must be invisible after recovery.
	s2 := open(t, dir)
	j2 := acquire(t, s2, KindSweep, "k7")
	if got := len(j2.Points()); got != 0 {
		t.Fatalf("crashed append leaked %d point(s)", got)
	}
	// And the journal must accept appends again at the same position.
	if err := j2.Append(Record{Type: TypePoint, Index: 0, Line: json.RawMessage(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestNilStoreAndJobAreNoOps(t *testing.T) {
	var s *Store
	j, err := s.Acquire(context.Background(), KindSweep, "k")
	if err != nil || j != nil {
		t.Fatalf("nil store Acquire = (%v, %v), want (nil, nil)", j, err)
	}
	if err := j.Append(Record{Type: TypeAccept}); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(); err != nil {
		t.Fatal(err)
	}
	j.Release()
	if _, ok := j.Accept(); ok {
		t.Fatal("nil job has no accept")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

func appendAll(t *testing.T, j *Job, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}
