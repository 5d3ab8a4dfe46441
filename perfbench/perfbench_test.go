package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/core"
)

// counts are the traced run's deterministic counts.
type counts struct{ events, packets, drops, frames, pairs int64 }

// tracedCounts runs one traced pass of units on workers goroutines and
// returns its counts, failing the test on any output mismatch.
func tracedCounts(t *testing.T, units []simUnit, workers int, digest func(any) []byte, refs map[string][]byte) counts {
	t.Helper()
	tot := &totals{}
	simPass(core.NewTestbed(1), units, workers, newRecorder(), tot, nil, digest, refs)
	if tot.failed != 0 || tot.units != len(units) {
		t.Fatalf("traced pass: %d of %d units failed", tot.failed, tot.units)
	}
	return counts{tot.events, tot.packets, tot.drops, tot.frames, tot.pairs}
}

// serialRefs computes every unit's reference digest serially.
func serialRefs(units []simUnit, digest func(any) []byte) map[string][]byte {
	root := core.NewTestbed(1)
	refs := map[string][]byte{}
	for _, u := range units {
		refs[u.key] = digest(u.study(root.Fork(u.key)))
	}
	return refs
}

func checkRepeat(t *testing.T, units []simUnit, digest func(any) []byte) {
	refs := serialRefs(units, digest)
	first := tracedCounts(t, units, 1, digest, refs)
	if first.events == 0 || first.packets == 0 || first.frames == 0 {
		t.Fatalf("counts look empty: %+v", first)
	}
	for _, workers := range []int{1, 2} {
		if got := tracedCounts(t, units, workers, digest, refs); got != first {
			t.Errorf("workers=%d: counts %+v, want %+v", workers, got, first)
		}
	}
}

func TestLagFleetCountsRepeat(t *testing.T) {
	checkRepeat(t, newLagFleet(config{seed: 1}).units, lagDigest)
}

func TestColdGridCountsRepeat(t *testing.T) {
	all, err := coldUnits(coldSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 48 {
		t.Fatalf("cold-grid has %d cells, want 48", len(all))
	}
	// Zoom's peer-to-peer N=2 cell, a capped audio cell, a capped
	// four-party cell: every counted path, in a test-sized subset.
	var units []simUnit
	for _, u := range all {
		switch u.key {
		case coldName + "/zoom/low-motion/2/0/noaudio",
			coldName + "/webex/high-motion/4/500000/audio",
			coldName + "/meet/low-motion/4/500000/noaudio":
			units = append(units, u)
		}
	}
	checkRepeat(t, units, encodeUnit)
	c := tracedCounts(t, units, 2, encodeUnit, serialRefs(units, encodeUnit))
	if c.pairs == 0 || c.drops == 0 {
		t.Errorf("capped cells should score pairs and drop packets: %+v", c)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics each mode
// prints are exactly the ones BENCHMARK.json declares, with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	r := &run{units: 2, wall: time.Second, rate: []float64{2}, cpuPer: []float64{1}, allocPer: []float64{1}, p50: []float64{1}, p99: []float64{2}}
	check := func(mode string, want []decl, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the run prints %d", mode, len(want), len(got))
		}
		for _, d := range want {
			m, ok := got[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s: printed %+v (present %v), declared unit %s", mode, d.Name, m, ok, d.Unit)
			}
		}
	}
	check("trace 0", bench.EndToEnd, endToEnd(r, 1).Metrics)
	tot := &totals{units: 2, wall: time.Second}
	check("trace 1", bench.PerLayer, layerResult(newRecorder(), tot, r).Metrics)
}
