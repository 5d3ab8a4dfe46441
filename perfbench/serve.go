package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/cluster"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/serve"
	"github.com/vcabench/vcabench/internal/store"
)

// keySeqLen is the length of the seeded request-key sequence; callers
// cycle through it.
const keySeqLen = 1 << 16

// zipfS skews the key sequence: a few hot cells take most requests.
const zipfS = 1.2

// warmServe serves the cold-grid cells from a filled store through an
// in-process serve.Server on loopback, called through a cluster.Pool.
type warmServe struct {
	cfg  config
	spec core.Campaign
	keys []string          // unit keys, in campaign order
	seq  []int             // seeded, skewed request sequence over keys
	ref  map[string][]byte // unit key → bytes set-up stored
	body []byte            // the spec as JSON, for the traced replays

	st     *store.Store
	srv    *http.Server
	served chan error // Serve's return value
	pool   *cluster.Pool
	next   atomic.Int64

	rec      atomic.Pointer[recorder] // non-nil while a traced pass runs
	getBytes atomic.Int64             // bytes the store returned while traced
}

func newWarmServe(cfg config) *warmServe {
	return &warmServe{cfg: cfg, spec: coldSpec()}
}

// setUp fills a fresh store with the cold-grid cells, reopens it with a
// memory front sized to about half of the stored bytes, starts the
// server and the pool, and warms them with two requests per cell from
// the key sequence.
func (w *warmServe) setUp() error {
	w.close()
	keys, err := w.spec.UnitKeys()
	if err != nil {
		return err
	}
	if w.body, err = json.Marshal(w.spec); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.tmp, "warm-")
	if err != nil {
		return err
	}
	disk, err := store.Open(dir)
	if err != nil {
		return err
	}
	rs := newRecordStore(coldName+"/", disk)
	tb := vcabench.NewTestbedParallel(w.cfg.seed, w.cfg.workers).WithStore(rs)
	if _, err := vcabench.RunCampaign(tb, w.spec, vcabench.TinyScale); err != nil {
		return err
	}
	if err := tb.StoreErr(); err != nil {
		return err
	}
	if err := sameReference(w.ref, rs.puts, [32]byte{}, [32]byte{}, len(keys)); err != nil {
		return err
	}
	w.keys, w.ref = keys, rs.puts
	total := 0
	for _, b := range w.ref {
		total += len(b)
	}
	if w.st, err = store.OpenOptions(dir, store.Options{LRUBytes: int64(total / 2)}); err != nil {
		return err
	}
	w.seq = keySequence(w.cfg.seed, len(keys))

	srv := serve.New(serve.Config{Seed: w.cfg.seed, Scale: core.TinyScale, Workers: 1,
		MaxRuns: w.cfg.workers, Store: timedStore{w}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.timed(srv.Handler())}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	if w.pool, err = cluster.New([]string{"http://" + ln.Addr().String()},
		cluster.Options{InFlight: w.cfg.workers}); err != nil {
		return err
	}
	for i := 0; i < 2*len(keys); i++ {
		if _, ok := w.call(nil); !ok {
			return fmt.Errorf("warm-up request failed")
		}
	}
	return nil
}

// keySequence draws the request sequence: a seeded permutation picks
// which cells are hot, and a Zipf draw picks ranks.
func keySequence(seed int64, n int) []int {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(n)
	z := rand.NewZipf(r, zipfS, 1, uint64(n-1))
	seq := make([]int, keySeqLen)
	for i := range seq {
		seq[i] = perm[z.Uint64()]
	}
	return seq
}

// call issues the next request of the sequence and checks the bytes.
func (w *warmServe) call(rec *recorder) (float64, bool) {
	key := w.keys[w.seq[int(w.next.Add(1)-1)%len(w.seq)]]
	req := core.UnitRequest{Spec: w.spec, Scale: core.TinyScale.Name, Seed: w.cfg.seed, Key: key}
	var sp int
	if rec != nil {
		sp = rec.start(key, "unit", 0)
	}
	t0 := time.Now()
	data, err := w.pool.DispatchUnit(req)
	lat := ms(time.Since(t0))
	if rec != nil {
		rec.end(sp)
		w.replayResolve(rec, key)
	}
	return lat, err == nil && bytes.Equal(data, w.ref[key])
}

// replayResolve repeats, from the caller, the core calls the server
// makes for every request: decoding and resolving the campaign spec,
// and provisioning the request's testbed.
func (w *warmServe) replayResolve(rec *recorder, key string) {
	s := rec.start(key, "core.resolve", 0)
	if c, err := core.ParseCampaign(w.body); err == nil {
		c.UnitKeys()
	}
	rec.end(s)
	s = rec.start(key, "core.testbed", 0)
	core.NewTestbed(w.cfg.seed)
	rec.end(s)
}

// slice is the length of one warm-serve measurement pass.
const slice = time.Second

// round runs the closed loop for d: workers callers, each sending its
// next request when the previous one returns.
func (w *warmServe) round(d time.Duration, rec *recorder) (units, failed int, lat []float64, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < w.cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			bad := 0
			for time.Now().Before(deadline) {
				l, ok := w.call(rec)
				mine = append(mine, l)
				if !ok {
					bad++
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			failed += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return len(lat), failed, lat, nil
}

// measure runs one-second rounds for d.
func (w *warmServe) measure(d time.Duration) (*run, error) {
	return passes(d, func() (int, int, []float64, error) { return w.round(slice, nil) })
}

func (w *warmServe) traced(d time.Duration, rec *recorder) (*totals, error) {
	st0, ps0, b0 := w.st.Stats(), w.pool.Stats(), w.getBytes.Load()
	w.rec.Store(rec)
	r, err := passes(d, func() (int, int, []float64, error) { return w.round(slice, rec) })
	w.rec.Store(nil)
	if err != nil {
		return nil, err
	}
	st1, ps1 := w.st.Stats(), w.pool.Stats()
	busy := rec.totalMS("serve.handler")
	return &totals{
		units: r.units, failed: r.failed, passes: r.passes, wall: r.wall,
		idle:       1 - busy/(float64(w.cfg.workers)*ms(r.wall)),
		gets:       st1.MemHits + st1.DiskHits + st1.Misses - st0.MemHits - st0.DiskHits - st0.Misses,
		memHits:    st1.MemHits - st0.MemHits,
		storeBytes: w.getBytes.Load() - b0,
		retries:    ps1.Retries - ps0.Retries,
		errors:     ps1.Errors - ps0.Errors,
		fallbacks:  ps1.Fallbacks - ps0.Fallbacks,
	}, nil
}

// timed wraps the server's handler in a span per request.
func (w *warmServe) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := w.rec.Load()
		if rec == nil {
			next.ServeHTTP(rw, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Key string `json:"key"`
		}
		json.Unmarshal(body, &req)
		r.Body = io.NopCloser(bytes.NewReader(body))
		s := rec.start(req.Key, "serve.handler", 0)
		next.ServeHTTP(rw, r)
		rec.end(s)
	})
}

// timedStore is the server's CellStore: the filled store, with a span
// around every read while a traced pass runs.
type timedStore struct{ w *warmServe }

func (t timedStore) Get(key string) ([]byte, bool) {
	rec := t.w.rec.Load()
	if rec == nil {
		return t.w.st.Get(key)
	}
	req := key
	if i := strings.Index(key, "/"+coldName+"/"); i >= 0 {
		req = key[i+1:]
	}
	s := rec.start(req, "store.get", 0)
	data, ok := t.w.st.Get(key)
	rec.end(s)
	t.w.getBytes.Add(int64(len(data)))
	return data, ok
}

func (t timedStore) Put(key string, data []byte) error { return t.w.st.Put(key, data) }

// close stops the server and waits for it to return.
func (w *warmServe) close() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("warm-serve: server:", err)
	}
	w.srv = nil
}
