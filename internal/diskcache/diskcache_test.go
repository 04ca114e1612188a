package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

func digestOf(payload string) string {
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the artifact")
	digest := digestOf(string(payload))
	if _, ok := st.Get(digest); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Put(digest, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(digest)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	want := Stats{Hits: 1, Misses: 1, Puts: 1}
	if got := st.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	digest := digestOf("persisted")
	st1, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Put(digest, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A second store over the same dir+version — the restart case — must
	// serve the entry; a different version must not even see it.
	st2, err := Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.Get(digest); !ok || string(got) != "persisted" {
		t.Fatalf("reopened store Get = %q, %v; want persisted entry", got, ok)
	}
	st3, err := Open(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Get(digest); ok {
		t.Fatal("bumped-version store served an old entry")
	}
}

// TestStoreDropsDamagedEntries is the never-poison property: every way a
// file can be wrong — truncated, bit-flipped, wrong version, renamed
// onto another digest, not a cache file at all — must read as a miss AND
// remove the file, so the next Put can heal the slot.
func TestStoreDropsDamagedEntries(t *testing.T) {
	damage := []struct {
		name string
		warp func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-3] }},
		{"bit-flipped payload", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x01
			return out
		}},
		{"foreign file", func([]byte) []byte { return []byte("not a cache file") }},
		{"empty file", func([]byte) []byte { return nil }},
		{"wrong version line", func(raw []byte) []byte {
			return []byte(strings.Replace(string(raw), "\nv1\n", "\nv0\n", 1))
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), "v1")
			if err != nil {
				t.Fatal(err)
			}
			digest := digestOf(d.name)
			if err := st.Put(digest, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(st.Root(), digest)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.warp(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Get(digest); ok {
				t.Fatalf("damaged entry served: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged entry not deleted (stat err = %v)", err)
			}
			stats := st.Stats()
			if stats.Dropped != 1 || stats.Misses != 1 || stats.Hits != 0 {
				t.Fatalf("Stats = %+v, want 1 dropped, 1 miss, 0 hits", stats)
			}
			// The slot heals: a fresh Put serves again.
			if err := st.Put(digest, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(digest); !ok {
				t.Fatal("healed entry not served")
			}
		})
	}
}

func TestStoreRejectsHostileDigests(t *testing.T) {
	st, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", digestOf("x") + "Z"} {
		if err := st.Put(d, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", d)
		}
		if _, ok := st.Get(d); ok {
			t.Errorf("Get(%q) hit", d)
		}
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	st, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := fmt.Sprintf("payload-%d", i%4)
			digest := digestOf(payload)
			for j := 0; j < 50; j++ {
				if err := st.Put(digest, []byte(payload)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := st.Get(digest); ok && string(got) != payload {
					t.Errorf("torn read: %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// stringLayer round-trips strings and rejects payloads that do not match
// their digest, mimicking the model-set layer's key-agreement check.
func stringLayer(st *Store) *Layer[string] {
	return NewLayer(st,
		func(v string) ([]byte, error) { return []byte(v), nil },
		func(digest string, data []byte) (string, error) {
			if digestOf(string(data)) != digest {
				return "", fmt.Errorf("payload does not denote %s", digest)
			}
			return string(data), nil
		})
}

func TestLayerDeletesEntriesThatFailDecode(t *testing.T) {
	st, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	l := stringLayer(st)
	l.Put(digestOf("hello"), "hello")
	if v, ok := l.Get(digestOf("hello")); !ok || v != "hello" {
		t.Fatalf("Get = %v, %v; want hello", v, ok)
	}

	// Rename the (store-level valid) entry onto a different digest: the
	// store checksum still passes, so only the codec's digest-agreement
	// check can catch it — and the bad name must be cleaned up.
	wrong := digestOf("goodbye")
	if err := os.Rename(filepath.Join(st.Root(), digestOf("hello")), filepath.Join(st.Root(), wrong)); err != nil {
		t.Fatal(err)
	}
	if v, ok := l.Get(wrong); ok {
		t.Fatalf("renamed entry served as %v", v)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), wrong)); !os.IsNotExist(err) {
		t.Fatalf("renamed entry not deleted (stat err = %v)", err)
	}
	stats := l.Stats()
	if stats.Dropped != 1 {
		t.Fatalf("Stats = %+v, want exactly 1 dropped", stats)
	}
	// Hits must count only Gets that returned a value.
	if stats.Hits != 1 {
		t.Fatalf("Stats = %+v, want exactly 1 hit (the good read)", stats)
	}
}

func TestNilLayerAndStoreAreInert(t *testing.T) {
	var l *Layer[string]
	if _, ok := l.Get(digestOf("x")); ok {
		t.Fatal("nil layer hit")
	}
	l.Put(digestOf("x"), "x")
	if st := l.Stats(); st != (Stats{}) {
		t.Fatalf("nil layer stats = %+v", st)
	}
	var s *Store
	if _, ok := s.Get(digestOf("x")); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(digestOf("x"), nil); err != nil {
		t.Fatalf("nil store Put = %v", err)
	}
	s.Delete(digestOf("x"))
	if s.Len() != 0 || s.Stats() != (Stats{}) {
		t.Fatal("nil store not inert")
	}
}

// TestStoreTornWriteIsNeverServed is the crash-durability regression:
// a torn write (injected via faultinject) leaves a prefix of the entry
// under the live name with no error reported — exactly what a power
// loss mid-write produces. Verify-on-read must treat it as a miss,
// delete it, and let the next Put replace it with a good entry.
func TestStoreTornWriteIsNeverServed(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		t.Run(fmt.Sprintf("frac-%v", frac), func(t *testing.T) {
			prev := faultinject.Install(faultinject.MustSchedule(faultinject.Fault{
				Site: faultinject.SiteDiskWrite, Hit: 1, Kind: faultinject.KindTorn, Frac: frac,
			}))
			t.Cleanup(func() { faultinject.Install(prev) })

			st, err := Open(t.TempDir(), "v1")
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("the artifact that tears")
			digest := digestOf(string(payload))
			if err := st.Put(digest, payload); err != nil {
				t.Fatalf("torn Put must report success (the write was acknowledged): %v", err)
			}
			if _, ok := st.Get(digest); ok {
				t.Fatal("torn entry served as a hit")
			}
			if got := st.Stats(); got.Dropped != 1 {
				t.Fatalf("torn entry not dropped on read: %+v", got)
			}
			// The site fired once; the replacement write is clean.
			if err := st.Put(digest, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get(digest)
			if !ok || string(got) != string(payload) {
				t.Fatalf("replacement entry unreadable: %q, %v", got, ok)
			}
		})
	}
}

// TestStoreInjectedWriteCrash covers KindCrash at the write site: the
// Put fails with a clean typed error, nothing lands under the live
// name, and the store keeps working afterwards.
func TestStoreInjectedWriteCrash(t *testing.T) {
	prev := faultinject.Install(faultinject.MustSchedule(faultinject.Fault{
		Site: faultinject.SiteDiskWrite, Hit: 1, Kind: faultinject.KindCrash, Frac: 0.5,
	}))
	t.Cleanup(func() { faultinject.Install(prev) })

	st, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("crash mid write")
	digest := digestOf(string(payload))
	err = st.Put(digest, payload)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crash Put error = %v, want ErrInjected", err)
	}
	if _, ok := st.Get(digest); ok {
		t.Fatal("crashed write became visible")
	}
	if err := st.Put(digest, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(digest); !ok {
		t.Fatal("store wedged after injected crash")
	}
}
