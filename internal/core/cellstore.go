package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
)

// This file is the persistence seam of the memoized scheduler: a
// CellStore (implemented by internal/store, or anything else that can
// hold bytes under a key) lets campaign-unit results outlive the
// process. Every unit result is deterministic in (schema version, seed,
// scale, overrides, campaign context, unit key), so that tuple IS the
// storage key: the store tier of resolve's chain is consulted before
// dispatching a unit and written right after computing one, which
// makes warm reruns of whole campaigns near-instant and byte-identical
// to cold runs.

// CellStore persists encoded campaign-unit results across processes.
// Implementations must be safe for concurrent use; the harness treats
// Get misses and failed Puts as cache misses, never as run failures.
type CellStore interface {
	// Get returns the bytes stored under key. The returned slice is
	// treated as read-only by the caller.
	Get(key string) ([]byte, bool)
	// Put stores data under key, replacing any prior entry.
	Put(key string, data []byte) error
}

// cellSchemaVersion names the gob encoding of persisted unit results.
// Bump it whenever QoEStudyResult, LagStudyResult or any type they
// embed changes shape: old entries then miss instead of mis-decoding.
// v2: QoEStudyResult gained the RateOverTime/RateBin series.
// v3: the replication refactor — campaign salts cover the Repeats
// axis and replicated campaigns store per-replica "<cellKey>/rep=K"
// units alongside bare cell keys.
// v4: diagnostics — QoEStudyResult gained the Diag flight-recorder
// document and keys gained a bare/diag mode segment (see cellKey).
// v5: common random numbers — a QoE cell's source video and speech are
// the run's shared feeds for (seed, motion, profile, replica), no longer
// drawn from the cell's own seed (see sources.go), so every stored QoE
// value changed.
const cellSchemaVersion = 5

func init() {
	// Unit results are persisted as a gob interface value so one codec
	// covers both study types.
	gob.Register(&QoEStudyResult{})
	gob.Register(&LagStudyResult{})
}

// WithStore attaches a persistent cell store and returns tb for
// chaining. With a store attached, memoized campaign units are looked
// up before dispatch and persisted after computation; worker count and
// cache temperature never change rendered bytes, only wall-clock time.
func (tb *Testbed) WithStore(cs CellStore) *Testbed {
	tb.store = cs
	return tb
}

// StoreErr reports the first cell-persistence failure, if any.
// Persistence is an optimization — a failed Put never fails the run —
// but a silently read-only cache directory would surprise users, so
// the CLI surfaces this as a warning.
func (tb *Testbed) StoreErr() error {
	tb.memoMu.Lock()
	defer tb.memoMu.Unlock()
	return tb.storeErr
}

// fingerprint digests an arbitrary context string into a short stable
// token for store keys.
func fingerprint(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// scaleFingerprint names a scale in store keys. The name alone is not
// enough: a caller may run a tweaked Scale that reuses a preset's name
// (benchmarks do), and those cells must not be shared.
func scaleFingerprint(sc Scale) string {
	return sc.Name + "-" + fingerprint(fmt.Sprintf("%+v", sc))
}

// overridesFingerprint captures the platform overrides that Fork copies
// into every unit's testbed. Overrides change results under unchanged
// unit keys, so they must key the store too; an ablation's
// counterfactual arm, which overrides on its own fork, salts its cell
// with overrideSalt for the same reason.
func (tb *Testbed) overridesFingerprint() string {
	if len(tb.overrides) == 0 {
		return "stock"
	}
	kinds := make([]string, 0, len(tb.overrides))
	for k := range tb.overrides {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var sb strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&sb, "%s=%+v;", k, tb.overrides[platform.Kind(k)])
	}
	return fingerprint(sb.String())
}

// cellKey composes the full persisted-cell key. salt carries campaign
// context the unit key omits (single-valued axes never make it into
// keys — see Campaign); "" means the key is already self-contained,
// as lag-study keys are. The mode segment splits diagnostics-armed
// cells from bare ones: their stored values differ (Diag document
// attached or not), so a cache warmed one way must never satisfy the
// other.
func (tb *Testbed) cellKey(sc Scale, salt, unitKey string) string {
	if salt == "" {
		salt = "-"
	}
	mode := "bare"
	if tb.diag {
		mode = "diag"
	}
	return fmt.Sprintf("v%d/%s/seed%d/%s/%s/%s/%s",
		cellSchemaVersion, mode, tb.seed, scaleFingerprint(sc), tb.overridesFingerprint(), salt, unitKey)
}

// encodeCell serializes one unit result. Encoding happens immediately
// after the unit computes, before any renderer sorts the result's
// samples in place: the stored observation order must match what a
// cold run's renderer sees, or warm reruns drift in the last ulp.
func encodeCell(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCell(data []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// oneSalt is the salt function of a batch whose units all share salt.
func oneSalt(salt string) func(int) string { return func(int) string { return salt } }

// overrideSalt salts the cell of a unit that applies cfg on its own
// fork, so an edited override misses the store instead of serving a
// cell computed under the old one.
func overrideSalt(cfg platform.Config) string {
	return "override-" + fingerprint(fmt.Sprintf("%+v", cfg))
}

// storeTier serves units from the attached cell store, and keeps every
// result a later tier served, so the sharing extends across processes;
// nil when no store is attached. sc and salt(i), unit i's salt, scope
// the persisted keys (see cellKey); they never influence in-memory
// behaviour.
func (tb *Testbed) storeTier(sc Scale, salt func(i int) string) *tier {
	if tb.store == nil {
		return nil
	}
	return &tier{
		span: obs.TierStore, label: "store",
		get: func(_ *Testbed, i int, key string) (any, []byte, bool) {
			data, ok := tb.store.Get(tb.cellKey(sc, salt(i), key))
			if !ok {
				return nil, nil, false
			}
			v, err := decodeCell(data)
			if err != nil {
				// Undecodable bytes (foreign content, or corruption that
				// got past the store's own checks) mean
				// recompute-and-overwrite, never a failed run.
				return nil, nil, false
			}
			return v, data, true
		},
		keep: func(r *resolution, i int) {
			// A worker's bytes are stored as they came: re-encoding the
			// decoded value would reproduce them exactly.
			var err error
			if r.data[i] == nil {
				r.data[i], err = encodeCell(r.out[i])
			}
			if err == nil {
				err = tb.store.Put(tb.cellKey(sc, salt(i), r.keys[i]), r.data[i])
			}
			if err != nil {
				// Persistence is an optimization: record the first
				// failure, never raise it.
				tb.memoMu.Lock()
				if tb.storeErr == nil {
					tb.storeErr = err
				}
				tb.memoMu.Unlock()
			}
		},
	}
}
