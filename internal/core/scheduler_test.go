package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
)

func TestShardSeedDerivation(t *testing.T) {
	if shardSeed(42, "lag/fig4/zoom") != shardSeed(42, "lag/fig4/zoom") {
		t.Error("shard seed not stable for the same (base, key)")
	}
	if shardSeed(42, "lag/fig4/zoom") == shardSeed(42, "lag/fig4/webex") {
		t.Error("different keys should derive different seeds")
	}
	if shardSeed(42, "lag/fig4/zoom") == shardSeed(43, "lag/fig4/zoom") {
		t.Error("different base seeds should derive different shard seeds")
	}
}

func TestForkIndependence(t *testing.T) {
	tb := NewTestbed(42)
	a, b := tb.Fork("unit-a"), tb.Fork("unit-a")
	if a.seed != b.seed {
		t.Error("same key should fork the same seed")
	}
	if a.seed == tb.Fork("unit-b").seed {
		t.Error("different keys should fork different seeds")
	}
	if a.Sim == tb.Sim || a.Net == tb.Net {
		t.Error("fork must not share the parent's simulator or network")
	}
	if a.Parallelism() != 1 {
		t.Errorf("fork parallelism = %d, want 1 (no nested fan-out)", a.Parallelism())
	}
	// Overrides registered on the parent carry into forks.
	cfg := platform.DefaultConfig(platform.Zoom)
	cfg.P2PWhenPair = false
	tb.OverridePlatform(cfg)
	f := tb.Fork("unit-c")
	if got, ok := f.overrides[platform.Zoom]; !ok || got.P2PWhenPair {
		t.Error("platform override did not carry into the fork")
	}
}

func TestSetParallelism(t *testing.T) {
	tb := NewTestbed(1)
	if tb.Parallelism() < 1 {
		t.Errorf("default parallelism = %d, want >= 1", tb.Parallelism())
	}
	if got := tb.SetParallelism(4).Parallelism(); got != 4 {
		t.Errorf("SetParallelism(4) = %d", got)
	}
	if got := tb.SetParallelism(0).Parallelism(); got < 1 {
		t.Errorf("SetParallelism(0) should restore the default, got %d", got)
	}
}

// The local tier's pool must run every unit exactly once, on a fork
// seeded by the unit key, and return results in key order, regardless
// of worker count.
func TestSchedulerRunsEveryUnitOnce(t *testing.T) {
	keys := []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7"}
	for _, workers := range []int{1, 3, 16} {
		tb := NewTestbed(7).SetParallelism(workers)
		var mu sync.Mutex
		seen := map[string]int64{}
		out, _ := tb.resolve(keys, nil, localTier(func(stb *Testbed, i int) any {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[keys[i]]; dup {
				t.Errorf("workers=%d: unit %s ran twice", workers, keys[i])
			}
			seen[keys[i]] = stb.seed
			return stb.seed
		}))
		if len(seen) != len(keys) {
			t.Fatalf("workers=%d: ran %d units, want %d", workers, len(seen), len(keys))
		}
		for key, seed := range seen {
			if want := shardSeed(7, key); seed != want {
				t.Errorf("workers=%d: unit %s got seed %d, want shardSeed %d", workers, key, seed, want)
			}
		}
		for i, key := range keys {
			if out[i] != shardSeed(7, key) {
				t.Errorf("workers=%d: result %d is %v, want unit %s's", workers, i, out[i], key)
			}
		}
	}
}

// A panicking unit is re-raised on the resolving goroutine once the
// pool drains, at any worker count.
func TestSchedulerPropagatesPanic(t *testing.T) {
	keys := []string{"ok", "bad", "ok2", "ok3", "ok4"}
	for _, workers := range []int{1, 3, 16} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			NewTestbed(8).SetParallelism(workers).resolve(keys, nil, localTier(func(_ *Testbed, i int) any {
				if keys[i] == "bad" {
					panic("boom")
				}
				return nil
			}))
		}()
	}
}

// resolve's memo and local tiers must compute each key once and serve repeats from the
// memo — including under concurrent access to the memo table.
func TestRunMemoized(t *testing.T) {
	tb := NewTestbed(9).SetParallelism(4)
	var calls atomic.Int64
	run := func(stb *Testbed, i int) any {
		calls.Add(1)
		return stb.seed
	}
	keys := []string{"a", "b", "c"}
	first, _ := tb.resolve(keys, nil, tb.memoTier(TinyScale), localTier(run))
	again, _ := tb.resolve(keys, nil, tb.memoTier(TinyScale), localTier(run))
	if calls.Load() != int64(len(keys)) {
		t.Errorf("ran %d units, want %d (memo miss on repeat?)", calls.Load(), len(keys))
	}
	for i := range keys {
		if first[i] != again[i] {
			t.Errorf("memoized result for %q changed between calls", keys[i])
		}
		if first[i].(int64) != shardSeed(9, keys[i]) {
			t.Errorf("unit %q did not run on its keyed fork", keys[i])
		}
	}
	// Partial overlap: only the new key runs.
	tb.resolve([]string{"b", "d"}, nil, tb.memoTier(TinyScale), localTier(run))
	if calls.Load() != int64(len(keys))+1 {
		t.Errorf("partial-overlap call ran %d total units, want %d", calls.Load(), len(keys)+1)
	}
}

// renderParallel renders one experiment at an explicit worker count.
func renderParallel(t *testing.T, id string, workers int) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("missing experiment %s", id)
	}
	var sb strings.Builder
	e.Run(NewTestbed(42).SetParallelism(workers), TinyScale, &sb)
	return sb.String()
}

// The campaign scheduler's core contract: same seed => same artifact
// bytes, whether the campaign runs serially or on four workers.
func TestLagFigureParallelDeterminism(t *testing.T) {
	serial := renderParallel(t, "fig4", 1)
	parallel := renderParallel(t, "fig4", 4)
	if serial != parallel {
		t.Errorf("fig4 output differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) < 100 {
		t.Errorf("fig4 output suspiciously short:\n%s", serial)
	}
}

func TestFig12SweepParallelDeterminism(t *testing.T) {
	serial := renderParallel(t, "fig12", 1)
	parallel := renderParallel(t, "fig12", 4)
	if serial != parallel {
		t.Errorf("fig12 output differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) < 100 {
		t.Errorf("fig12 output suspiciously short:\n%s", serial)
	}
}

// The ablation arms run through the scheduler too; make sure the
// counterfactual override lands on the right shard at any worker count.
func TestAblationParallelDeterminism(t *testing.T) {
	serial := renderParallel(t, "ablate-p2p", 1)
	parallel := renderParallel(t, "ablate-p2p", 4)
	if serial != parallel {
		t.Errorf("ablate-p2p output differs between 1 and 4 workers:\n%s\nvs\n%s", serial, parallel)
	}
}

// Campaign sharing: figures drawn from the same campaign (fig4 lag CDFs
// and fig8 RTT tables both read the fig4 scenario's lag studies) must
// reuse memoized units instead of re-running them.
func TestCampaignMemoSharing(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(2)
	sce := LagScenarios()[0]
	first := lagStudies(tb, TinyScale, sce.units()...)
	for i, kind := range platform.Kinds {
		if again := lagStudies(tb, TinyScale, sce.unit(kind))[0]; again != first[i] {
			t.Errorf("%s: lag unit not reused from the memoized campaign", kind)
		}
	}
}

// The memo is scoped by scale like the store: a testbed that renders
// fig4 at TinyScale and then at a tweaked scale must render the second
// exactly as a fresh testbed at the tweaked scale does, not replay the
// Tiny results.
func TestMemoScopedByScale(t *testing.T) {
	e, ok := Lookup("fig4")
	if !ok {
		t.Fatal("fig4 missing")
	}
	tweaked := TinyScale
	tweaked.LagSessions++
	render := func(tb *Testbed, sc Scale) string {
		var sb strings.Builder
		e.Run(tb, sc, &sb)
		return sb.String()
	}
	tb := NewTestbed(42).SetParallelism(2)
	tiny := render(tb, TinyScale)
	same := render(tb, tweaked)
	fresh := render(NewTestbed(42).SetParallelism(2), tweaked)
	if same != fresh {
		t.Errorf("tweaked-scale render on a reused testbed differs from a fresh testbed's:\n--- reused ---\n%s\n--- fresh ---\n%s", same, fresh)
	}
	if same == tiny {
		t.Error("tweaked-scale render equals the TinyScale one; the scale change had no effect")
	}
}

// Ablation arms are resolved units: the first run computes and stores
// both arms under unit spans, a rerun from a fresh testbed over the same
// store serves both from it byte-identically, and an edited
// counterfactual config misses the store instead of reading the stale
// cell.
func TestAblationArmsResolveThroughStore(t *testing.T) {
	e, ok := Lookup("ablate-p2p")
	if !ok {
		t.Fatal("ablate-p2p missing")
	}
	st := &mapStore{m: map[string][]byte{}}
	run := func() (string, *obs.Telemetry) {
		tel := manualTelemetry()
		var sb strings.Builder
		e.Run(NewTestbed(42).SetParallelism(2).WithTelemetry(tel).WithStore(st), TinyScale, &sb)
		return sb.String(), tel
	}
	served := func(tel *obs.Telemetry, tier string) uint64 {
		return tel.Metrics.CounterVec("vcabench_units_total",
			"Campaign units resolved, by serving tier.", "tier").With(tier).Value()
	}

	cold, coldTel := run()
	if got := coldTel.Tracer.CountTier(obs.TierUnit); got != 2 {
		t.Errorf("cold unit spans = %d, want 2 (one per arm)", got)
	}
	if got := served(coldTel, "local"); got != 2 {
		t.Errorf("cold units_total{local} = %d, want 2", got)
	}
	if got := st.puts.Load(); got != 2 {
		t.Errorf("cold store puts = %d, want 2", got)
	}

	warm, warmTel := run()
	if warm != cold {
		t.Errorf("warm ablation output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if got := served(warmTel, "store"); got != 2 {
		t.Errorf("warm units_total{store} = %d, want 2", got)
	}
	if got := served(warmTel, "local"); got != 0 {
		t.Errorf("warm units_total{local} = %d, want 0", got)
	}
	if got := st.puts.Load(); got != 2 {
		t.Errorf("store puts after warm run = %d, want 2 (zero recompute)", got)
	}

	// Same keys, edited counterfactual: the baseline arm still hits, the
	// counterfactual recomputes.
	cfg := platform.DefaultConfig(platform.Zoom)
	cfg.P2PWhenPair = false
	cfg.RegionalLB = !cfg.RegionalLB
	tel := manualTelemetry()
	lagStudies(NewTestbed(42).WithTelemetry(tel).WithStore(st), TinyScale,
		arms("ablate-p2p", "p2p", "relay", geo.USEast, []geo.Region{geo.USWest}, cfg)...)
	if s, l := served(tel, "store"), served(tel, "local"); s != 1 || l != 1 {
		t.Errorf("edited counterfactual: units_total store=%d local=%d, want 1 and 1", s, l)
	}
}
