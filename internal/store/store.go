// Package store is a content-addressed, on-disk result store for
// campaign-unit results. The campaign engine computes expensive,
// deterministic cells — each named by a canonical key that already
// encodes everything the result depends on (schema version, seed,
// scale, unit coordinates) — so a cell computed once can be served
// forever, to any process, from a shared directory.
//
// Layout: each entry lives at objects/<aa>/<rest-of-sha256(key)>,
// written atomically (temp file + rename) and framed with the full key
// plus a payload checksum. Reads tolerate corruption: a torn, tampered
// or foreign file is reported as a miss (and counted in Stats.Corrupt),
// never an error — the caller just recomputes and rewrites the cell.
// An in-memory LRU front, bounded in bytes, absorbs repeated reads of
// hot cells without touching the disk.
//
// A Store is safe for concurrent use by multiple goroutines, and the
// on-disk format is safe for concurrent writers across processes: two
// writers racing on one key atomically install equal bytes.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/vcabench/vcabench/internal/obs"
)

// DefaultLRUBytes bounds the in-memory front when Options.LRUBytes is
// unset: enough for tens of thousands of typical cells.
const DefaultLRUBytes = 64 << 20

// magic heads every cell file; the trailing version digit is the frame
// format's, independent of the payload schema version inside the key.
const magic = "vcacell1\n"

// Options tunes a Store.
type Options struct {
	// LRUBytes bounds the in-memory front in payload bytes; <= 0 means
	// DefaultLRUBytes. Entries larger than the bound bypass the front.
	LRUBytes int64

	// Telemetry, when set with a registry, exports the traffic counters
	// as vcabench_store_* series (snapshotted under the store's lock so
	// a scrape never tears them) and times Get/Put into read/write
	// latency histograms through the bundle's clock. At most one Store
	// may export into a given registry. Telemetry never changes store
	// behaviour.
	Telemetry *obs.Telemetry
}

// Stats counts store traffic since Open. Snapshot via Store.Stats.
type Stats struct {
	MemHits  uint64 // served from the LRU front
	DiskHits uint64 // served from disk
	Misses   uint64 // key not present anywhere
	Puts     uint64 // entries written
	Corrupt  uint64 // unreadable cell files, reported as misses
}

// Hits is the total over both tiers.
func (st Stats) Hits() uint64 { return st.MemHits + st.DiskHits }

// Store is an on-disk key→bytes store with an LRU memory front.
type Store struct {
	dir      string
	lruBytes int64

	// tel and the latency histograms are set once at OpenOptions and
	// read-only after; nil histograms mean unobserved Get/Put.
	tel      *obs.Telemetry
	readSec  *obs.Histogram
	writeSec *obs.Histogram

	mu       sync.Mutex
	lru      *list.List // *lruEntry, front = most recently used
	idx      map[string]*list.Element
	curBytes int64
	stats    Stats
}

type lruEntry struct {
	key  string
	data []byte
}

// Open creates (or reopens) a store rooted at dir with default options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with explicit tuning.
func OpenOptions(dir string, o Options) (*Store, error) {
	if o.LRUBytes <= 0 {
		o.LRUBytes = DefaultLRUBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		lruBytes: o.LRUBytes,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
	}
	if o.Telemetry != nil && o.Telemetry.Metrics != nil {
		s.tel = o.Telemetry
		s.readSec = o.Telemetry.Metrics.Histogram("vcabench_store_read_seconds",
			"Store Get latency (memory front and disk alike).", nil)
		s.writeSec = o.Telemetry.Metrics.Histogram("vcabench_store_write_seconds",
			"Store Put latency, including the atomic rename commit.", nil)
		o.Telemetry.Metrics.RegisterGroup(s.emitMetrics)
	}
	return s, nil
}

// emitMetrics exports the traffic counters on each scrape. One lock
// acquisition snapshots every series, so hits, misses, puts and the
// LRU fill are always mutually consistent on the wire.
func (s *Store) emitMetrics(g *obs.Group) {
	s.mu.Lock()
	st := s.stats
	cur := s.curBytes
	s.mu.Unlock()
	tier := func(v string) []obs.Label { return []obs.Label{{Name: "tier", Value: v}} }
	g.Emit("vcabench_store_hits_total", "Cell reads served, by tier.", obs.TypeCounter,
		obs.Sample{Labels: tier("mem"), Value: float64(st.MemHits)},
		obs.Sample{Labels: tier("disk"), Value: float64(st.DiskHits)})
	g.Emit("vcabench_store_misses_total", "Cell reads that found no entry.", obs.TypeCounter,
		obs.Sample{Value: float64(st.Misses)})
	g.Emit("vcabench_store_puts_total", "Cell entries written.", obs.TypeCounter,
		obs.Sample{Value: float64(st.Puts)})
	g.Emit("vcabench_store_corrupt_total", "Unreadable cell files, reported as misses.", obs.TypeCounter,
		obs.Sample{Value: float64(st.Corrupt)})
	g.Emit("vcabench_store_lru_bytes", "Payload bytes resident in the LRU front.", obs.TypeGauge,
		obs.Sample{Value: float64(cur)})
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// path maps a key to its object file: addressing by the key's SHA-256
// keeps arbitrary key strings (slashes, unicode) out of file names and
// spreads entries across 256 subdirectories.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, "objects", h[:2], h[2:])
}

// Get returns the payload stored under key. The returned slice is
// shared with the LRU front and must be treated as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.readSec == nil {
		return s.get(key)
	}
	t0 := s.tel.Now()
	data, ok := s.get(key)
	s.readSec.Observe(float64(s.tel.Now()-t0) / 1e9)
	return data, ok
}

func (s *Store) get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		data := el.Value.(*lruEntry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	payload, err := unframe(key, raw)
	if err != nil {
		// Corruption-tolerant: a bad file is a miss; the caller will
		// recompute and Put a fresh copy over it.
		s.count(func(st *Stats) { st.Corrupt++ })
		return nil, false
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.admit(key, payload)
	s.mu.Unlock()
	return payload, true
}

// Put persists data under key, atomically replacing any prior entry.
func (s *Store) Put(key string, data []byte) error {
	if s.writeSec == nil {
		return s.put(key, data)
	}
	t0 := s.tel.Now()
	err := s.put(key, data)
	s.writeSec.Observe(float64(s.tel.Now()-t0) / 1e9)
	return err
}

func (s *Store) put(key string, data []byte) error {
	objPath := s.path(key)
	objDir := filepath.Dir(objPath)
	if err := os.MkdirAll(objDir, 0o777); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(objDir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp makes 0600 files and rename preserves that, which
	// would lock a daemon-populated cache away from other users of a
	// shared directory; open the entries up like ordinary files so the
	// documented cross-process sharing holds across uids (replacement
	// only needs directory permission — it goes through rename).
	werr := tmp.Chmod(0o644)
	if werr == nil {
		_, werr = tmp.Write(frame(key, data))
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		// Rename is the commit point: readers only ever see a complete
		// frame or no file at all.
		werr = os.Rename(tmp.Name(), objPath)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.admit(key, data)
	s.mu.Unlock()
	return nil
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// admit installs data as the key's LRU entry, replacing any older one,
// and evicts from the cold end until the front fits its byte bound. A
// payload too large for the front bypasses it; the older entry is
// still dropped, so later Gets cannot serve stale bytes. Caller holds
// s.mu.
func (s *Store) admit(key string, data []byte) {
	if el, ok := s.idx[key]; ok {
		s.drop(el)
	}
	if int64(len(data)) > s.lruBytes {
		return
	}
	s.idx[key] = s.lru.PushFront(&lruEntry{key: key, data: data})
	s.curBytes += int64(len(data))
	for s.curBytes > s.lruBytes {
		s.drop(s.lru.Back())
	}
}

// drop removes one LRU entry. Caller holds s.mu.
func (s *Store) drop(el *list.Element) {
	ent := el.Value.(*lruEntry)
	s.lru.Remove(el)
	delete(s.idx, ent.key)
	s.curBytes -= int64(len(ent.data))
}

// frame wraps a payload for disk: magic, key, payload, then a SHA-256
// over key+payload so torn or bit-flipped files are detectable.
func frame(key string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+16+len(key)+len(payload)+sha256.Size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.New()
	sum.Write([]byte(key))
	sum.Write(payload)
	return sum.Sum(buf)
}

// unframe validates a cell file read for key and returns its payload.
func unframe(key string, raw []byte) ([]byte, error) {
	if len(raw) < len(magic)+16+sha256.Size || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: bad cell header")
	}
	rest := raw[len(magic):]
	keyLen := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	// Compare by subtraction: adding to a corrupt length field could
	// wrap past the bounds check and panic the slice below, violating
	// the corruption-is-a-miss contract.
	if keyLen > uint64(len(rest))-8-sha256.Size {
		return nil, fmt.Errorf("store: truncated cell")
	}
	if string(rest[:keyLen]) != key {
		// A SHA-256 prefix collision, or a file copied under the wrong
		// name: either way this is not our entry.
		return nil, fmt.Errorf("store: cell holds key %q, want %q", rest[:keyLen], key)
	}
	rest = rest[keyLen:]
	payLen := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if payLen != uint64(len(rest))-sha256.Size {
		return nil, fmt.Errorf("store: truncated cell payload")
	}
	payload := rest[:payLen]
	sum := sha256.New()
	sum.Write([]byte(key))
	sum.Write(payload)
	if string(sum.Sum(nil)) != string(rest[payLen:]) {
		return nil, fmt.Errorf("store: cell checksum mismatch")
	}
	return payload, nil
}
