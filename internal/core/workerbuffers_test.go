package core

import (
	"bytes"
	"testing"
)

// bufCampaign is a QoE grid with audio and caps: four cells, so a
// worker scores several cells in turn on its own buffers.
func bufCampaign(name string) Campaign {
	return Campaign{
		Name:      name,
		Platforms: []string{"zoom", "meet"},
		Geometries: []Geometry{
			{Name: "mix", Host: "US-East", Receivers: []string{"US-West", "FR"}},
		},
		Motions: []string{"high-motion"},
		Sizes:   []int{3},
		CapsBps: []int64{0, 500_000},
		Audio:   []bool{true},
	}
}

// Each pool worker scores its cells on one buffer pool of its own, so
// which cells share buffers depends on the worker count. The campaign
// bytes must not: they are identical at 1, 2 and 4 workers, and a
// testbed that already ran a campaign renders the next one as a fresh
// testbed does. Under -race this also checks that no buffer crosses
// workers.
func TestWorkerBuffersIsolation(t *testing.T) {
	want := campaignJSON(t, NewTestbed(42).SetParallelism(1), bufCampaign("bufs"))
	for _, workers := range []int{2, 4} {
		if got := campaignJSON(t, NewTestbed(42).SetParallelism(workers), bufCampaign("bufs")); !bytes.Equal(got, want) {
			t.Errorf("campaign bytes differ between 1 and %d workers", workers)
		}
	}
	tb := NewTestbed(42).SetParallelism(2)
	if got := campaignJSON(t, tb, bufCampaign("bufs")); !bytes.Equal(got, want) {
		t.Error("campaign bytes differ on a reused testbed's first run")
	}
	again := campaignJSON(t, tb, bufCampaign("bufs-again"))
	if fresh := campaignJSON(t, NewTestbed(42).SetParallelism(2), bufCampaign("bufs-again")); !bytes.Equal(again, fresh) {
		t.Error("a testbed's second campaign differs from the same campaign on a fresh testbed")
	}
}

// A cell scored on a worker's reused buffers encodes to the same bytes
// as the cell run on a bare fork, whose scorer allocates fresh ones. At
// one worker every cell after the first scores on dirty buffers. The
// pooled results are read from a store, which keeps each one's encoding
// from before rendering sorts its samples.
func TestWorkerBuffersMatchFreshScorer(t *testing.T) {
	spec := bufCampaign("bufs-fresh")
	st := &mapStore{m: make(map[string][]byte)}
	tb := NewTestbed(42).SetParallelism(1).WithStore(st)
	if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
		t.Fatal(err)
	}
	rc, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rc.cells() {
		pooled, ok := st.Get(tb.cellKey(TinyScale, rc.salt(), c.key))
		if !ok {
			t.Fatalf("cell %s: not stored", c.key)
		}
		stb := tb.Fork(c.key)
		if stb.bufs != nil {
			t.Fatal("a bare fork carries worker buffers")
		}
		fresh, err := encodeCell(runCell(stb, c, 0, TinyScale))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pooled, fresh) {
			t.Errorf("cell %s: worker-buffer result differs from a fresh scorer's", c.key)
		}
	}
}

// The scorer buffer counter reports reuse once a worker has scored a
// cell, and exposes both series before any unit runs.
func TestScoreBufferMetrics(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(1).WithTelemetry(manualTelemetry())
	scoreBufs := tb.em.scoreBufs
	if r, a := scoreBufs.With("reused").Value(), scoreBufs.With("allocated").Value(); r != 0 || a != 0 {
		t.Fatalf("before any cell: reused=%d allocated=%d", r, a)
	}
	if _, err := RunCampaign(tb, bufCampaign("bufs-metrics"), TinyScale); err != nil {
		t.Fatal(err)
	}
	reused, allocated := scoreBufs.With("reused").Value(), scoreBufs.With("allocated").Value()
	if allocated == 0 || reused <= allocated {
		t.Errorf("one worker over four cells: reused=%d allocated=%d, want mostly reused", reused, allocated)
	}
}
