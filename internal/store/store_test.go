package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a hit")
	}
	want := []byte("payload with\x00binary\xffbytes")
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, want)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Puts != 1 || st.Hits() != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// A second Store over the same directory — a fresh process — must see
// entries written by the first, from disk.
func TestStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("cell/one", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("cell/one")
	if !ok || string(got) != "alpha" {
		t.Fatalf("cross-process Get = %q, %v", got, ok)
	}
	if st := b.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Errorf("expected one disk hit, got %+v", st)
	}
	// Second read comes from the LRU front.
	if _, ok := b.Get("cell/one"); !ok {
		t.Fatal("second Get missed")
	}
	if st := b.Stats(); st.MemHits != 1 {
		t.Errorf("expected one mem hit, got %+v", st)
	}
}

// Corrupt files — truncated, bit-flipped, or holding another key — are
// misses, not errors, and a Put repairs them.
func TestStoreCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")

	corrupt := func(mutate func([]byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(raw), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"bit flip", func(raw []byte) []byte { raw[len(raw)-5] ^= 0x40; return raw }},
		{"empty", func(raw []byte) []byte { return nil }},
		{"foreign key", func(raw []byte) []byte { return frame("other", []byte("good bytes")) }},
		// Length fields crafted so naive addition wraps past the bounds
		// checks: must be a miss, not a slice panic.
		{"key length overflow", func(raw []byte) []byte {
			for i := 0; i < 8; i++ {
				raw[len(magic)+i] = 0xff
			}
			return raw
		}},
		{"payload length overflow", func(raw []byte) []byte {
			off := len(magic) + 8 + len("k")
			for i := 0; i < 8; i++ {
				raw[off+i] = 0xff
			}
			return raw
		}},
	}
	for _, c := range cases {
		// Fresh store per case: the LRU front would otherwise mask the file.
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(c.mutate)
		if _, ok := s.Get("k"); ok {
			t.Errorf("%s: corrupt cell served as a hit", c.name)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Errorf("%s: corrupt count = %d, want 1", c.name, st.Corrupt)
		}
		if err := s.Put("k", []byte("good bytes")); err != nil {
			t.Fatalf("%s: repair Put: %v", c.name, err)
		}
		// Read through a fresh store so the repaired file (not the LRU) serves.
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get("k"); !ok || string(got) != "good bytes" {
			t.Errorf("%s: repaired Get = %q, %v", c.name, got, ok)
		}
	}
}

// Leftover temp files from a crashed writer never shadow the entry.
func TestStorePutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	objDir := filepath.Dir(s.path("k"))
	if err := os.WriteFile(filepath.Join(objDir, ".tmp-crashed"), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "v" {
		t.Errorf("Get = %q, %v despite stray temp file", got, ok)
	}
}

// The LRU front stays within its byte bound and evicts cold entries;
// evicted entries are still served from disk.
func TestStoreLRUEviction(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{LRUBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 30)
	for _, k := range []string{"a", "b", "c"} { // 90 bytes > 64: "a" evicts
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if s.curBytes > 64 {
		t.Errorf("LRU holds %d bytes, bound is 64", s.curBytes)
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("evicted entry lost from disk")
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Errorf("evicted entry should hit disk: %+v", st)
	}
	// An entry bigger than the whole front bypasses it but persists.
	big := bytes.Repeat([]byte("y"), 100)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("big"); !ok || !bytes.Equal(got, big) {
		t.Fatal("oversized entry not served from disk")
	}
}

// Overwriting a key with a payload too large for the memory front
// must not leave the older, smaller payload there to be served.
func TestStoreOversizedPutReplacesFrontEntry(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{LRUBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	want := []byte("new-and-longer-than-eight")
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, want) {
		t.Errorf("Get = %q, %v; want %q", got, ok, want)
	}
	if s.curBytes != 0 {
		t.Errorf("front holds %d bytes after its only entry was replaced", s.curBytes)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{LRUBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			key := string(rune('a' + g%4))
			for i := 0; i < 50; i++ {
				if err := s.Put(key, []byte{byte(g)}); err != nil {
					done <- err
					return
				}
				s.Get(key)
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
