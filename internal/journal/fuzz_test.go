package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRecoverFile holds recovery to its contract on arbitrary bytes: it
// never panics, what it returns is a prefix of the file's well-formed
// records, the file is cut to exactly that prefix, and opening the
// result again finds the same records and nothing more to cut. The seed
// corpus under testdata/fuzz/FuzzRecoverFile (a valid journal, a torn
// length, a bad CRC, an oversized length field, an out-of-order index, a
// missing header) is replayed by the ordinary `go test`.
func FuzzRecoverFile(f *testing.F) {
	const key = "k"
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fileName(KindSweep, key))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, ends, torn, err := recoverFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(ends) != len(recs) {
			t.Fatalf("%d records, %d offsets", len(recs), len(ends))
		}
		// Every record is the frame the file holds at its offsets.
		at := int64(len(header))
		for i, end := range ends {
			if end <= at || end > int64(len(data)) {
				t.Fatalf("record %d ends at %d, after %d in a %d-byte file", i, end, at, len(data))
			}
			rec, n, ok := readFrame(data[at:end])
			if !ok || int64(n) != end-at || !reflect.DeepEqual(rec, recs[i]) {
				t.Fatalf("record %d is not the frame at [%d,%d)", i, at, end)
			}
			at = end
		}
		// The file is the input, cut where the records end iff a tail was
		// discarded.
		want := data
		switch {
		case !torn:
		case len(recs) > 0 || bytes.HasPrefix(data, []byte(header)):
			want = data[:at]
		default:
			want = nil
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("file is %d bytes after recovery (torn=%v), want %d", len(got), torn, len(want))
		}

		keep := validPrefix(KindSweep, key, recs)
		if len(keep) > len(recs) || !sameRecords(keep, recs[:len(keep)]) {
			t.Fatal("validPrefix did not return a prefix")
		}
		for i, r := range keep {
			switch {
			case i == 0 && (r.Type != TypeAccept || r.Kind != KindSweep || r.Key != key):
				t.Fatalf("first record %+v is not this job's acceptance", r)
			case i > 0 && ((r.Type != TypePoint && r.Type != TypeSample) || r.Index != i-1):
				t.Fatalf("record %d is %s index %d", i, r.Type, r.Index)
			}
		}

		// Through the store: what the first open keeps, the second finds,
		// with nothing left to cut.
		reopen := func() (*Store, []Record, []byte) {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j := acquire(t, s, KindSweep, key)
			defer j.Release()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return s, j.recs, raw
		}
		_, recs1, raw1 := reopen()
		s2, recs2, raw2 := reopen()
		if !sameRecords(recs1, recs2) || !bytes.Equal(raw1, raw2) {
			t.Fatalf("second open differs: %d records / %d bytes, then %d / %d", len(recs1), len(raw1), len(recs2), len(raw2))
		}
		if st := s2.Stats(); st.RecoveredTails != 0 {
			t.Fatalf("second open discarded %d more tail(s)", st.RecoveredTails)
		}
		if terminal := len(recs) > 0 && recs[len(recs)-1].Type == TypeDone; !terminal && !sameRecords(recs1, keep) {
			t.Fatalf("the store kept %d records, recoverFile+validPrefix %d", len(recs1), len(keep))
		}
	})
}

// sameRecords is reflect.DeepEqual with nil and empty alike.
func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
