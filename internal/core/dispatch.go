package core

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/vcabench/vcabench/internal/obs"
)

// This file is the dispatch seam of the campaign engine — the
// coordinator half of distributed execution. The paper's campaigns are
// embarrassingly parallel (the authors fanned real measurements across
// many client machines), and every cell's seed derives from its
// canonical unit key, so a cell computes to the same bytes on any
// machine. A Dispatcher (implemented by internal/cluster.Pool over
// vcabenchd's POST /units endpoint) exploits that: it is the remote tier
// of resolve's chain, offered the units that neither the memo table nor
// the cell store holds, and any unit the fleet cannot serve — a dead
// worker, a timeout, an undecodable response — falls through to the
// local tier.
// Placement can never leak into results: the merged CampaignResult is
// byte-identical to a single-machine run for any fleet size, worker
// mix or failure pattern.

// UnitRequest identifies one campaign cell for out-of-process
// execution: the declarative spec it belongs to, a preset scale name,
// the campaign's base seed and the cell's canonical unit key. The
// executing side derives everything else (the cell's coordinates, its
// shard seed, its store key) exactly as a local run would.
type UnitRequest struct {
	Spec  Campaign `json:"spec"`
	Scale string   `json:"scale"`
	Seed  int64    `json:"seed"`
	Key   string   `json:"key"`
	// Diag asks the worker to arm the flight recorder for this unit, so
	// the returned cell carries the same Diag document a local
	// diagnostics-armed run would compute.
	Diag bool `json:"diag,omitempty"`
}

// Dispatcher executes campaign units out of process. DispatchUnit
// returns the cell's canonical encoding — the same bytes
// RunCampaignUnit produces and the cell store persists. Any error is
// treated as "compute locally", never as a failed campaign, so
// implementations should exhaust their own retries first.
// Implementations must be safe for concurrent use: the remote tier
// dispatches every missing unit of a campaign at once.
type Dispatcher interface {
	DispatchUnit(req UnitRequest) ([]byte, error)
}

// WithDispatcher attaches a unit dispatcher and returns tb for
// chaining. Dispatch applies only to campaign cells (RunCampaign and
// the campaign-backed experiments): lag studies and ablation arms
// resolve through the memo, store and local tiers, and campaigns under
// platform overrides compute in-process. Fleet topology and failures
// never change rendered bytes, only wall-clock time.
func (tb *Testbed) WithDispatcher(d Dispatcher) *Testbed {
	tb.dispatcher = d
	return tb
}

// remoteTier offers units to the attached Dispatcher, or is nil when
// this run must stay local: no dispatcher attached; platform overrides
// in effect (ablations exist only in this process, a remote worker
// would compute stock platforms); or a tweaked scale that merely reuses
// a preset's name (a UnitRequest carries scales by name, so shipping it
// would silently change the workload).
func (tb *Testbed) remoteTier(spec Campaign, sc Scale) *tier {
	if tb.dispatcher == nil || len(tb.overrides) > 0 {
		return nil
	}
	if preset, ok := ScaleByName(sc.Name); !ok || preset != sc {
		return nil
	}
	return &tier{
		span: obs.TierDispatch, label: "dispatch", fan: fleet,
		get: func(_ *Testbed, _ int, key string) (any, []byte, bool) {
			data, err := tb.dispatcher.DispatchUnit(UnitRequest{Spec: spec, Scale: sc.Name, Seed: tb.seed, Key: key, Diag: tb.diag})
			if err != nil {
				return nil, nil, false
			}
			v, err := decodeCell(data)
			if err != nil {
				// A worker that returns undecodable bytes is as good as a
				// dead one: recompute locally, never fail the campaign.
				return nil, nil, false
			}
			return v, data, true
		},
	}
}

// replicaBase splits a replica unit key into its cell key and replica
// index K, requiring the canonical form "<cellKey>/rep=K" with K in
// [0, repeats) and no leading zeros or signs — a non-canonical spelling
// ("rep=007", "rep=+1") must not alias a canonical unit, because the
// key derives the shard seed and names the store entry. ok is false
// when the key carries no well-formed replica segment for the given
// factor.
func replicaBase(key string, repeats int) (base string, k int, ok bool) {
	i := strings.LastIndex(key, "/rep=")
	if i < 0 {
		return "", 0, false
	}
	num := key[i+len("/rep="):]
	k, err := strconv.Atoi(num)
	if err != nil || strconv.Itoa(k) != num || k < 0 || k >= repeats {
		return "", 0, false
	}
	return key[:i], k, true
}

// RunCampaignUnit executes exactly one unit of a campaign spec — a
// cell, or one "<cellKey>/rep=K" replica of a replicated campaign —
// and returns its canonical encoding: the worker half of distributed
// execution, behind vcabenchd's POST /units endpoint. The unit runs on
// a fork seeded from (tb seed, key) exactly as a local campaign run
// would, so the returned bytes decode to the same value a
// single-machine run computes. The unit resolves through the store tier
// (when tb carries a store) and the local tier, so the worker shares
// its cache with its own campaigns and with repeated unit requests.
// There is no memo tier: renderers sort memoized samples in place, and
// a post-render encoding would drift from what a cold run persists.
func RunCampaignUnit(tb *Testbed, spec Campaign, sc Scale, key string) ([]byte, error) {
	rc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	// A replicated campaign schedules only replica keys, a single-run
	// campaign only bare cell keys; the two key shapes never mix for
	// one spec, so the replica segment is required exactly when
	// repeats > 1.
	cellKey, rep := key, 0
	if rc.repeats > 1 {
		base, k, ok := replicaBase(key, rc.repeats)
		if !ok {
			return nil, fmt.Errorf("core: campaign %q (repeats=%d) has no unit %q", rc.name, rc.repeats, key)
		}
		cellKey, rep = base, k
	}
	cells := rc.cells()
	var cell *campaignCell
	for i := range cells {
		if cells[i].key == cellKey {
			cell = &cells[i]
			break
		}
	}
	if cell == nil {
		return nil, fmt.Errorf("core: campaign %q has no cell %q", rc.name, key)
	}
	out, data := tb.resolve([]string{key}, nil, tb.storeTier(sc, oneSalt(rc.salt())),
		localTier(func(stb *Testbed, _ int) any { return runCell(stb, *cell, rep, sc) }))
	if data[0] != nil {
		return data[0], nil
	}
	enc, err := encodeCell(out[0])
	if err != nil {
		return nil, fmt.Errorf("core: encode cell %q: %w", key, err)
	}
	return enc, nil
}
