package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/qoe"
)

// This file is the campaign engine's resolver: the paper's evaluation
// is a set of campaigns made of many independent units — one (platform,
// scenario) lag study per Figs 3-11 column, one (platform, size, motion)
// cell per Figs 12-15 sweep point, one arm per ablation — and real
// measurement fans these across client machines. Every unit resolves
// through one chain of tiers (memo, store, fleet, local); a unit that
// computes runs in the local tier's worker pool on its own forked
// Testbed whose seed is derived from the unit's canonical key, so
// results depend only on (base seed, unit key): the same bytes come out
// whether the campaign runs on one worker or sixteen, and whether a
// unit runs first or last.

// shardSeed derives a unit's seed from the campaign's base seed and the
// unit's canonical key. Hashing the key (rather than, say, a worker or
// loop index) is what makes results independent of scheduling order.
func shardSeed(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// Fork creates an independent testbed for one campaign unit: fresh
// simulator, fresh network, fresh platform instances, seeded by
// shardSeed(tb.seed, unitKey). Platform overrides registered on the
// parent (the ablation mechanism) carry over; instantiated platforms do
// not — a fork always provisions its own. The root's read-only source
// bank is shared, not copied (see sources.go). Forks default to serial
// scheduling so nested campaigns don't multiply workers.
func (tb *Testbed) Fork(unitKey string) *Testbed {
	ntb := NewTestbed(shardSeed(tb.seed, unitKey))
	ntb.parallelism = 1
	for k, cfg := range tb.overrides {
		ntb.overrides[k] = cfg
	}
	// Telemetry rides along so nested campaign work on the fork reports
	// into the same registry and tracer; it never influences results.
	ntb.tel = tb.tel
	ntb.em = tb.em
	// QoE cells read their source feeds from the root's bank, so cells
	// of one run share them (see sources.go).
	ntb.bankRoot = tb.bankRoot
	if ntb.bankRoot == nil {
		ntb.bankRoot = tb
	}
	// Diagnostics arm per unit: the fork gets its own recorder keyed by
	// the unit, so each cell's flight-recorder document is independent
	// of scheduling order and worker count.
	if tb.diag {
		ntb.diag = true
		ntb.armDiag(unitKey)
	}
	return ntb
}

// SetParallelism sets the campaign worker count (0 restores the
// default, runtime.GOMAXPROCS(0)) and returns tb for chaining.
// Negative counts are a programming error and panic; worker count
// never changes results, only wall-clock time.
func (tb *Testbed) SetParallelism(n int) *Testbed {
	if n < 0 {
		panic(fmt.Sprintf("core: SetParallelism(%d): worker count must be >= 1 (or 0 for the default)", n))
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tb.parallelism = n
	return tb
}

// Parallelism reports the campaign worker count.
func (tb *Testbed) Parallelism() int { return tb.parallelism }

// A tier is one place a campaign unit's result can come from: the memo
// table, the cell store, the worker fleet or local compute. resolve
// asks its tiers in order; each serves what it can of the units no
// earlier tier served and passes the rest on, so a cold store or a dead
// fleet degrades to plain local execution, never to a failed or
// divergent campaign.
type tier struct {
	// span and label name the tier in telemetry: the span kind of each
	// attempt, and the vcabench_units_total label of each unit served.
	span, label string
	fan         fanout
	// get makes one attempt at unit i on stb — the unit's fork for a
	// pool tier, the resolving testbed otherwise — returning the result
	// and, when the tier has it, the result's canonical encoding.
	get func(stb *Testbed, i int, key string) (v any, data []byte, ok bool)
	// keep, when non-nil, stores a result a later tier served, so this
	// tier serves the unit next time.
	keep func(r *resolution, i int)
}

// fanout is how a tier runs its attempts.
type fanout int

const (
	// inline tries one unit at a time on the caller's goroutine.
	inline fanout = iota
	// fleet tries every unit at once; the fleet bounds its own
	// per-worker concurrency.
	fleet
	// pool runs units on a bounded worker pool of Parallelism()
	// goroutines, each unit on TB.Fork(key). A pool tier serves every
	// unit it is given.
	pool
)

// memoTier serves units this testbed already resolved at scale sc.
// Experiments that share a campaign (fig12/fig14/fig15 all read the
// §4.3.1 US sweep; Figs 3-11 share four lag campaigns) hit it on every
// call after the first. Entries are scoped by the scale fingerprint, as
// store keys are: a tweaked scale never reads another scale's results.
func (tb *Testbed) memoTier(sc Scale) *tier {
	scope := scaleFingerprint(sc) + "/"
	return &tier{
		span: obs.TierMemo, label: "memo",
		get: func(_ *Testbed, _ int, key string) (any, []byte, bool) {
			tb.memoMu.Lock()
			defer tb.memoMu.Unlock()
			v, ok := tb.memo[scope+key]
			return v, nil, ok
		},
		keep: func(r *resolution, i int) {
			tb.memoMu.Lock()
			defer tb.memoMu.Unlock()
			if tb.memo == nil {
				tb.memo = make(map[string]any)
			}
			tb.memo[scope+r.keys[i]] = r.out[i]
		},
	}
}

// localTier computes units in-process: run(stb, i) on the worker pool,
// each unit on its own fork.
func localTier(run func(stb *Testbed, i int) any) *tier {
	return &tier{
		span: obs.TierLocalRun, label: "local", fan: pool,
		get: func(stb *Testbed, i int, _ string) (any, []byte, bool) { return run(stb, i), nil, true },
	}
}

// resolution is one pass of a batch of unit keys through the tiers.
type resolution struct {
	tb   *Testbed
	keys []string
	out  []any
	// data holds each unit's canonical encoding when a tier had or made
	// one: a store hit, a worker's response, a store write-back.
	data   [][]byte
	spans  []obs.SpanID
	starts []int64
	// keepers are the tiers already asked that keep results.
	keepers []*tier
}

// resolve returns the results for keys, in order, each from the first
// tier that serves it, and the canonical encoding of each result a tier
// had or made (nil otherwise). Nil tiers — a store or fleet that is not
// attached — are skipped. Every result is written back to the earlier
// tiers that keep results before resolve returns: renderers sort
// samples in place, and the stored observation order must be the
// pre-render one a cold run would also see.
//
// parents, when non-nil, maps unit keys to their enclosing trace span
// (the cell or replica envelope RunCampaign opened); every unit records
// a span tree — unit → one child per tier attempted — ending at the
// tier that served it. Telemetry is observational only: the results
// never depend on whether it is attached.
func (tb *Testbed) resolve(keys []string, parents map[string]obs.SpanID, tiers ...*tier) ([]any, [][]byte) {
	tr := tb.tracer()
	r := &resolution{
		tb: tb, keys: keys,
		out:    make([]any, len(keys)),
		data:   make([][]byte, len(keys)),
		spans:  make([]obs.SpanID, len(keys)),
		starts: make([]int64, len(keys)),
	}
	pending := make([]int, len(keys))
	for i, k := range keys {
		pending[i] = i
		r.starts[i] = tb.now()
		r.spans[i] = tr.Start(parents[k], obs.TierUnit, k)
	}
	for _, t := range tiers {
		if t == nil || len(pending) == 0 {
			continue
		}
		pending = r.serve(t, pending)
		if t.keep != nil {
			r.keepers = append(r.keepers, t)
		}
	}
	return r.out, r.data
}

// serve runs t's attempts over the pending units and returns the ones
// t could not serve, in input order. It returns once every attempt has
// finished, so the caller may read r.out without further
// synchronization.
func (r *resolution) serve(t *tier, pending []int) []int {
	var rest []int
	switch t.fan {
	case inline:
		for _, i := range pending {
			if !r.try(t, r.tb, i) {
				rest = append(rest, i)
			}
		}
	case fleet:
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for _, i := range pending {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !r.try(t, r.tb, i) {
					mu.Lock()
					rest = append(rest, i)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		sort.Ints(rest)
	case pool:
		// Parallelism() workers take units in input order, each onto
		// its own fork, so the worker count only changes wall-clock
		// time, never results. Each worker owns one scoring buffer
		// pool and lends it to every fork it runs, one at a time, so
		// its cells reuse float images without sharing them across
		// goroutines. A panicking unit stops further pickups;
		// in-flight units drain, then the panic is re-raised on the
		// caller's goroutine.
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			next     atomic.Int64
			panicked any
		)
		for w := min(r.tb.parallelism, len(pending)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						mu.Lock()
						if panicked == nil {
							panicked = p
						}
						mu.Unlock()
						next.Store(int64(len(pending)))
					}
				}()
				bufs := qoe.NewBuffers()
				for j := int(next.Add(1)) - 1; j < len(pending); j = int(next.Add(1)) - 1 {
					i := pending[j]
					stb := r.tb.Fork(r.keys[i])
					stb.bufs = bufs
					r.try(t, stb, i)
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	return rest
}

// try makes one attempt of t at unit i under a span of t's kind, which
// for a pool tier opens when a worker picks the unit up. On a hit it
// records the result, finishes the unit as served by t and writes the
// result back to the keepers.
func (r *resolution) try(t *tier, stb *Testbed, i int) bool {
	tb, tr := r.tb, r.tb.tracer()
	s := tr.Start(r.spans[i], t.span, r.keys[i])
	runs := t.fan != inline && tb.em != nil
	if runs {
		tb.em.inflight.Inc()
	}
	v, data, ok := t.get(stb, i, r.keys[i])
	if runs {
		tb.em.inflight.Dec()
	}
	tr.End(s)
	if !ok {
		return false
	}
	r.out[i], r.data[i] = v, data
	tb.finishUnit(r.spans[i], t.label, r.starts[i])
	for _, k := range r.keepers {
		k.keep(r, i)
	}
	return true
}
