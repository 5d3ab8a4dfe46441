package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// run is what one untraced measurement saw. Every metric is a median
// over its passes, so one pass hit by a noisy neighbour does not move it.
type run struct {
	units, failed int
	passes        int
	wall          time.Duration // summed pass time
	rate          []float64     // per pass: units per second
	cpuPer        []float64     // per pass: process user+sys CPU per unit, ms
	allocPer      []float64     // per pass: bytes allocated per unit
	p50, p99      []float64     // per pass: unit latency quantiles as callers saw them, ms
}

// passes runs pass back to back until d has elapsed (at least once).
// pass returns its unit count, failed unit count and per-unit latencies.
func passes(d time.Duration, pass func() (units, failed int, lat []float64, err error)) (*run, error) {
	r := &run{}
	deadline := time.Now().Add(d)
	for r.passes == 0 || time.Now().Before(deadline) {
		t0, cpu0, alloc0 := time.Now(), cpuTime(), totalAlloc()
		units, failed, lat, err := pass()
		wall, cpu, alloc := time.Since(t0), cpuTime()-cpu0, totalAlloc()-alloc0
		if err != nil {
			return nil, err
		}
		if units > 0 {
			r.rate = append(r.rate, float64(units)/wall.Seconds())
			r.cpuPer = append(r.cpuPer, ms(cpu)/float64(units))
			r.allocPer = append(r.allocPer, float64(alloc)/float64(units))
			r.p50 = append(r.p50, quantile(lat, 0.50))
			r.p99 = append(r.p99, quantile(lat, 0.99))
		}
		r.units += units
		r.failed += failed
		r.wall += wall
		r.passes++
	}
	return r, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// quantile is the linear-interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// span is one timed call the benchmark made into a layer. Spans of one
// unit share its key as the request ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds the traced run's spans in memory until writeJSONL.
// Safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(req, name string, parent int) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// durations lists the durations of every span with the given name, ms.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// totalMS sums the durations of every span with the given name, ms.
func (r *recorder) totalMS(name string) float64 {
	sum := 0.0
	for _, d := range r.durations(name) {
		sum += d
	}
	return sum
}

// meanMS is the mean duration of the named spans, 0 when there are none.
func (r *recorder) meanMS(name string) float64 {
	ds := r.durations(name)
	if len(ds) == 0 {
		return 0
	}
	return r.totalMS(name) / float64(len(ds))
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
