package store

import (
	"bytes"
	"testing"
)

// benchPayload is an 8 KiB cell payload.
var benchPayload = bytes.Repeat([]byte("cell"), 2048)

// BenchmarkGet reads one stored cell from the memory front, and from
// disk through a front too small to hold it.
func BenchmarkGet(b *testing.B) {
	for _, c := range []struct {
		name string
		lru  int64
	}{{"mem", 0}, {"disk", 1}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := OpenOptions(b.TempDir(), Options{LRUBytes: c.lru})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Put("cell", benchPayload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := s.Get("cell"); !ok {
					b.Fatal("stored cell missed")
				}
			}
		})
	}
}

// BenchmarkPut rewrites one cell: frame, temp file, rename.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Put("cell", benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}
