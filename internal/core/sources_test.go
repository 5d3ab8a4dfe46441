package core

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
)

// tinyTape names the tiny scale's tape of one motion for replica rep.
func tinyTape(m media.MotionClass, rep int) tapeKey {
	return tapeKey{motion: m, profile: TinyScale.Profile, rep: rep}
}

// tinySpeech names the tiny scale's speech clip for replica rep.
func tinySpeech(rep int) speechKey { return speechKey{dur: TinyScale.QoEDur, rep: rep} }

// bankCounts reads the vcabench_source_bank_total series.
func bankCounts(tb *Testbed) (tapeBuilds, tapeReuses, clipBuilds, clipReuses uint64) {
	c := tb.em.bank
	return c.With("tape", "build").Value(), c.With("tape", "reuse").Value(),
		c.With("clip", "build").Value(), c.With("clip", "reuse").Value()
}

// Two same-motion cells of one campaign play one tape and stream one
// speech clip: the bank holds a single entry of each, built by one cell
// and reused by the other, and any fork of the run reads that entry.
func TestSameMotionCellsShareFeeds(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(2).WithTelemetry(manualTelemetry())
	spec := Campaign{Name: "crn", Platforms: []string{"zoom", "webex"}, Audio: []bool{true}}
	if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
		t.Fatal(err)
	}
	b := tb.bank
	if b == nil || len(b.tapes) != 1 || len(b.speech) != 1 {
		t.Fatalf("bank after two same-motion cells: %+v, want one tape and one clip", b)
	}
	tapeBuilds, tapeReuses, clipBuilds, clipReuses := bankCounts(tb)
	if tapeBuilds != 1 || tapeReuses != 1 || clipBuilds != 1 || clipReuses != 1 {
		t.Errorf("bank lookups: tape %d built %d reused, clip %d built %d reused; want 1/1 each",
			tapeBuilds, tapeReuses, clipBuilds, clipReuses)
	}
	tape := b.tapes[tinyTape(media.HighMotion, 0)]
	if tape == nil || tape.Len() == 0 {
		t.Fatal("the cells' high-motion tape is missing or was never played")
	}
	a, c := tb.Fork("crn/zoom").sources(), tb.Fork("crn/webex").sources()
	for i := 0; i < tape.Len(); i++ {
		if a.tape(tinyTape(media.HighMotion, 0), nil).Frame(i) != c.tape(tinyTape(media.HighMotion, 0), nil).Frame(i) {
			t.Fatalf("frame %d: forks got different pointers", i)
		}
	}
	if a.speechClip(tinySpeech(0), nil).clip != c.speechClip(tinySpeech(0), nil).clip {
		t.Error("forks got different speech clips")
	}
}

// Replicas are independent draws: rep=0 and rep=1 play different
// frames and speech.
func TestReplicasDrawIndependentFeeds(t *testing.T) {
	tb := NewTestbed(42)
	spec := Campaign{Name: "crn-rep", Audio: []bool{true}, Repeats: 2}
	if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
		t.Fatal(err)
	}
	b := tb.bank
	t0, t1 := b.tapes[tinyTape(media.HighMotion, 0)], b.tapes[tinyTape(media.HighMotion, 1)]
	if t0 == nil || t1 == nil || len(b.tapes) != 2 {
		t.Fatalf("replicated campaign built %d tapes, want one per replica", len(b.tapes))
	}
	if bytes.Equal(t0.Frame(0).Pix, t1.Frame(0).Pix) {
		t.Error("rep=0 and rep=1 play the same frames")
	}
	s0, s1 := b.speech[tinySpeech(0)], b.speech[tinySpeech(1)]
	if s0 == nil || s1 == nil || s0.clip.Samples[1000] == s1.clip.Samples[1000] {
		t.Error("rep=0 and rep=1 stream the same speech")
	}
}

// The bank is a pure function of (seed, key): a unit computed in a
// local run, where other cells built the feeds, and the same unit
// computed through RunCampaignUnit on a second root, which builds them
// alone, encode to identical bytes.
func TestRemoteUnitRebuildsSharedFeeds(t *testing.T) {
	spec := Campaign{
		Name:      "crn-remote",
		Platforms: []string{"zoom", "meet"},
		Motions:   []string{"low-motion", "high-motion"},
		Audio:     []bool{true},
		Repeats:   2,
	}
	st := &mapStore{m: make(map[string][]byte)}
	tb := NewTestbed(7).WithStore(st).SetParallelism(4)
	if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
		t.Fatal(err)
	}
	rc, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := spec.UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	// The last units ran on feeds the first ones built.
	for _, key := range []string{keys[len(keys)-1], keys[len(keys)-2]} {
		want, ok := st.m[tb.cellKey(TinyScale, rc.salt(), key)]
		if !ok {
			t.Fatalf("local run did not persist %q", key)
		}
		got, err := RunCampaignUnit(NewTestbed(7), spec, TinyScale, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("unit %q: bytes from a second root differ from the local run's", key)
		}
	}
}

// Every session of a cell replays the tape from frame 0, so a two-
// session cell records no more frames than a one-session cell: a feed
// that ran on across sessions would have extended the tape, and the
// second session's recording would reference different frames.
func TestSessionsReplayTapeFromStart(t *testing.T) {
	frames := func(sessions int) int {
		sc := TinyScale
		sc.QoESessions = sessions
		tb := NewTestbed(5)
		RunQoEStudy(tb, platform.Zoom, geo.USEast, []geo.Region{geo.USEast2}, media.LowMotion, sc, QoEOpts{})
		return tb.sources().tape(tinyTape(media.LowMotion, 0), nil).Len()
	}
	one, two := frames(1), frames(2)
	if one == 0 || two != one {
		t.Errorf("tape holds %d frames after two sessions, %d after one; want equal", two, one)
	}
}

// Cells running concurrently on one tape never write to it: afterwards
// every frame still hashes like a freshly built tape of the same key,
// which also rules out a frame having gone through a pool and been
// reused. Run with -race to check the tape's locking.
func TestConcurrentCellsLeaveTapeIntact(t *testing.T) {
	tb := NewTestbed(11).SetParallelism(4)
	spec := Campaign{Name: "crn-race", Platforms: []string{"zoom", "webex"}, Sizes: []int{2, 3}}
	if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
		t.Fatal(err)
	}
	k := tinyTape(media.HighMotion, 0)
	shared, fresh := tb.bank.tapes[k], tb.bank.newTape(k)
	if shared == nil || shared.Len() == 0 {
		t.Fatal("four cells left no tape")
	}
	for i := 0; i < shared.Len(); i++ {
		if sha256.Sum256(shared.Frame(i).Pix) != sha256.Sum256(fresh.Frame(i).Pix) {
			t.Fatalf("shared tape frame %d changed while cells read it", i)
		}
	}
}

// Lag units never touch the bank: running one allocates nothing there.
func TestLagUnitsLeaveBankUnbuilt(t *testing.T) {
	tb := NewTestbed(3)
	RunLagStudy(tb.Fork("lag"), platform.Zoom, geo.USEast, []geo.Region{geo.USEast2}, TinyScale)
	if tb.bank != nil {
		t.Error("a lag study built the source bank")
	}
}

// The 48-cell cold grid (3 platforms × 2 motions × 2 sizes × 2 caps ×
// audio off/on) builds one tape per motion and one speech clip, and
// every other lookup reuses them.
func TestColdGridBankCounts(t *testing.T) {
	tb := NewTestbed(1).SetParallelism(2).WithTelemetry(manualTelemetry())
	spec := Campaign{
		Name:       "cold-grid",
		Geometries: []Geometry{{Host: "US-East", Zone: "US"}},
		Motions:    []string{"low-motion", "high-motion"},
		Sizes:      []int{2, 4},
		CapsBps:    []int64{0, 500_000},
		Audio:      []bool{false, true},
	}
	res, err := RunCampaign(tb, spec, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 48 {
		t.Fatalf("grid has %d cells, want 48", len(res.Cells))
	}
	tapeBuilds, tapeReuses, clipBuilds, clipReuses := bankCounts(tb)
	if tapeBuilds != 2 || tapeReuses != 46 || clipBuilds != 1 || clipReuses != 23 {
		t.Errorf("bank lookups: tape %d built %d reused, clip %d built %d reused; want 2/46 and 1/23",
			tapeBuilds, tapeReuses, clipBuilds, clipReuses)
	}
}
