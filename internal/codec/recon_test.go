package codec

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/vcabench/vcabench/internal/media"
)

// ladderFrames encodes a high-motion feed whose target steps through
// rates that land on every rung of the resolution ladder, returning the
// source frames and the per-frame targets so the stream can be replayed.
func ladderFrames() (frames []*media.Frame, targets []float64) {
	p := media.QuickProfile
	src := media.NewSource(media.HighMotion, p, 11)
	for _, bps := range []float64{2_000_000, 300_000, 60_000, 5_000, 2_000_000} {
		for i := 0; i < 3*p.FPS; i++ {
			frames = append(frames, src.Next())
			targets = append(targets, bps)
		}
	}
	return frames, targets
}

func newLadderEncoder() *VideoEncoder {
	p := media.QuickProfile
	return NewVideoEncoder(VideoEncoderConfig{FPS: p.FPS, TargetBps: 2_000_000, BitScale: BitScaleFor(p), Seed: 5})
}

// Reconstructions built on demand, in any request order, are the bytes
// an encoder produces when every reconstruction is read right after
// Encode — on all three ladder rungs, and across skipped frames.
func TestReconLazyMatchesEager(t *testing.T) {
	frames, targets := ladderFrames()
	eagerEnc, lazyEnc := newLadderEncoder(), newLadderEncoder()
	eager := make([]*media.Frame, len(frames))
	lazy := make([]EncodedFrame, len(frames))
	for i, f := range frames {
		eagerEnc.SetTargetBps(targets[i])
		eager[i] = eagerEnc.Encode(f).Recon()
		lazyEnc.SetTargetBps(targets[i])
		lazy[i] = lazyEnc.Encode(f)
	}

	rungs := map[int]bool{}
	skips := 0
	for i := range lazy {
		if lazy[i].Skipped {
			skips++
			continue
		}
		rungs[frames[i].W/lazyEnc.recons[i].encW] = true
	}
	for _, scale := range []int{1, 2, 4} {
		if !rungs[scale] {
			t.Errorf("ladder rung 1/%d never encoded (rungs %v)", scale, rungs)
		}
	}
	if skips == 0 {
		t.Error("no skipped frame in the stream")
	}

	// Late frame first, then the early ones, then repeats of both.
	n := len(lazy)
	order := []int{n - 7, 3, 0, 1, n - 7, 20, n - 1, 3}
	for i := range lazy {
		order = append(order, i)
	}
	for _, i := range order {
		got, want := lazy[i].Recon(), eager[i]
		switch {
		case want == nil:
			if got != nil {
				t.Fatalf("frame %d: recon of a skipped frame", i)
			}
		case got == nil:
			t.Fatalf("frame %d: no recon", i)
		case got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix):
			t.Fatalf("frame %d: lazy recon differs from eager", i)
		}
	}
}

// Copies of one EncodedFrame share one reconstruction: identity-keyed
// QoE caches see the same frame whichever copy a decoder holds.
func TestReconSharedAcrossCopies(t *testing.T) {
	p := media.QuickProfile
	enc := NewVideoEncoder(VideoEncoderConfig{FPS: p.FPS, BitScale: BitScaleFor(p), Seed: 1})
	src := media.NewSource(media.LowMotion, p, 2)
	ef := enc.Encode(src.Next())
	cp := ef
	held := &cp
	first := held.Recon()
	if first == nil {
		t.Fatal("no recon for a coded frame")
	}
	if ef.Recon() != first || cp.Recon() != first {
		t.Error("copies of one EncodedFrame returned different reconstructions")
	}
}

// Skipped frames and frames not produced by an encoder reconstruct to
// nothing.
func TestReconNilWithoutPicture(t *testing.T) {
	frames, _ := encodeSeconds(t, media.HighMotion, 20_000, 6)
	skipped := 0
	for i := range frames {
		if frames[i].Skipped {
			skipped++
			if frames[i].Recon() != nil {
				t.Errorf("skipped frame %d has a recon", i)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no skipped frame at starvation rate")
	}
	for _, ef := range []EncodedFrame{
		{Seq: 1, Bits: 12_000, Keyframe: true},
		{Seq: 0, Skipped: true},
	} {
		if ef.Recon() != nil {
			t.Errorf("hand-built frame %+v has a recon", ef)
		}
	}
	if out := NewVideoDecoder().Decode(&EncodedFrame{Seq: 0, Keyframe: true}); out != nil {
		t.Error("decoder showed a picture for a hand-built frame")
	}
}

// Encode alone allocates no pixel buffer: a stream's worth of encodes
// allocates less than one frame, while reading the reconstructions
// allocates at least one frame each.
func TestEncodeWithoutReconAllocatesNoPixels(t *testing.T) {
	frames, targets := ladderFrames()
	enc := newLadderEncoder()
	framePix := uint64(frames[0].W * frames[0].H)
	efs := make([]EncodedFrame, len(frames))

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, f := range frames {
		enc.SetTargetBps(targets[i])
		efs[i] = enc.Encode(f)
	}
	runtime.ReadMemStats(&m1)
	coded := uint64(0)
	for i := range efs {
		if efs[i].Recon() != nil {
			coded++
		}
	}
	runtime.ReadMemStats(&m2)

	if got := m1.TotalAlloc - m0.TotalAlloc; got >= framePix {
		t.Errorf("%d encodes allocated %d bytes, want < one %d-pixel frame", len(frames), got, framePix)
	}
	if got := m2.TotalAlloc - m1.TotalAlloc; got < coded*framePix {
		t.Errorf("%d reconstructions allocated %d bytes, want >= %d", coded, got, coded*framePix)
	}
}

// benchEncode encodes the tiny-scale profile's 12-second lag session of
// src, a fresh encoder per session, reading every reconstruction when
// recon is set. One op is one frame.
func benchEncode(b *testing.B, src func(media.Profile) media.Source, recon bool) {
	p := media.QuickProfile
	frames := media.Record(src(p), 12*p.FPS)
	b.ReportAllocs()
	b.ResetTimer()
	var enc *VideoEncoder
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		if k == 0 {
			enc = NewVideoEncoder(VideoEncoderConfig{FPS: p.FPS, BitScale: BitScaleFor(p), Seed: 1})
		}
		sinkFrame = enc.Encode(frames[k])
		if recon {
			sinkRecon = sinkFrame.Recon()
		}
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkFrame EncodedFrame
	sinkRecon *media.Frame
)

var benchSources = []struct {
	name string
	src  func(media.Profile) media.Source
}{
	{"flash", func(p media.Profile) media.Source { return media.NewFlash(p, 2.0) }},
	{"high-motion", func(p media.Profile) media.Source { return media.NewSource(media.HighMotion, p, 1) }},
}

// BenchmarkEncode is the lag studies' encoder cost: rate control and
// the quantizer, no reconstruction read.
func BenchmarkEncode(b *testing.B) {
	for _, s := range benchSources {
		b.Run(s.name, func(b *testing.B) { benchEncode(b, s.src, false) })
	}
}

// BenchmarkEncodeRecon is the QoE cells' encoder cost: every
// reconstruction read, as a decoder fed every frame does.
func BenchmarkEncodeRecon(b *testing.B) {
	for _, s := range benchSources {
		b.Run(s.name, func(b *testing.B) { benchEncode(b, s.src, true) })
	}
}
