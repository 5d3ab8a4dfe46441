package codec

import (
	"math"
	"testing"

	"github.com/vcabench/vcabench/internal/media"
)

// refDecode is the per-segment form of AudioDecoder.Decode: every frame
// becomes its own slice, appended to a growing clip. Decode must match
// it sample for sample and draw the same coding noise in the same order.
func refDecode(d *AudioDecoder, frames []*AudioFrame, rate int, bitrate float64) *media.AudioClip {
	frameSamples := int(AudioFrameDur * float64(rate))
	out := &media.AudioClip{Rate: rate}
	var prev []float64
	lossRun := 0
	noiseStd := 0.0
	if bitrate > 0 {
		noiseStd = 0.002 * math.Sqrt(16000/math.Max(bitrate, 1000))
	}
	for _, f := range frames {
		if f != nil {
			lossRun = 0
			seg := make([]float64, len(f.PCM.Samples))
			copy(seg, f.PCM.Samples)
			for i := range seg {
				seg[i] += d.rng.NormFloat64() * noiseStd
			}
			out.Samples = append(out.Samples, seg...)
			prev = seg
			continue
		}
		lossRun++
		atten := math.Pow(0.5, float64(lossRun))
		n := frameSamples
		if len(prev) > 0 && len(prev) < n {
			n = len(prev)
		}
		seg := make([]float64, n)
		for i := range seg {
			v := 0.0
			if len(prev) > 0 {
				v = prev[i%len(prev)] * atten
			}
			seg[i] = v
		}
		out.Samples = append(out.Samples, seg...)
	}
	return out
}

// lossPatterns are frame lists over a clip whose last frame is short:
// each maps the encoded frames to the list a decoder sees.
var lossPatterns = []struct {
	name string
	mask func(ptrs []*AudioFrame) []*AudioFrame
}{
	{"clean", func(p []*AudioFrame) []*AudioFrame { return p }},
	{"leading-loss", func(p []*AudioFrame) []*AudioFrame {
		for i := 0; i < 4; i++ {
			p[i] = nil
		}
		return p
	}},
	{"burst", func(p []*AudioFrame) []*AudioFrame {
		for i := 10; i < 25; i++ {
			p[i] = nil
		}
		return p
	}},
	{"alternating", func(p []*AudioFrame) []*AudioFrame {
		for i := 1; i < len(p); i += 2 {
			p[i] = nil
		}
		return p
	}},
	// The short final frame is received, then concealed twice: the
	// concealed frames take its length.
	{"short-final-then-loss", func(p []*AudioFrame) []*AudioFrame { return append(p, nil, nil) }},
	{"all-lost", func(p []*AudioFrame) []*AudioFrame {
		clear(p)
		return p
	}},
	{"empty", func([]*AudioFrame) []*AudioFrame { return nil }},
}

// shortFinalFrames encodes a 1.01 s clip: 50 full 20 ms frames and a
// 10 ms final one.
func shortFinalFrames(t testing.TB) ([]AudioFrame, int) {
	clip := media.NewSpeech(1.01, 5)
	frames := NewAudioEncoder(45_000).Encode(clip)
	if got, full := len(frames[len(frames)-1].PCM.Samples), len(frames[0].PCM.Samples); got >= full {
		t.Fatalf("final frame has %d samples, want fewer than %d", got, full)
	}
	return frames, clip.Rate
}

func framePtrs(frames []AudioFrame) []*AudioFrame {
	ptrs := make([]*AudioFrame, len(frames))
	for i := range frames {
		ptrs[i] = &frames[i]
	}
	return ptrs
}

// Decode is bit-identical to the per-segment reference under every loss
// pattern, and leaves the noise generator at the same point.
func TestAudioDecodeMatchesReference(t *testing.T) {
	frames, rate := shortFinalFrames(t)
	for _, lp := range lossPatterns {
		t.Run(lp.name, func(t *testing.T) {
			ptrs := lp.mask(framePtrs(frames))
			for _, bps := range []float64{0, 12_000, 45_000} {
				got, dec := NewAudioDecoder(9), NewAudioDecoder(9)
				g := got.Decode(ptrs, rate, bps)
				w := refDecode(dec, ptrs, rate, bps)
				if g.Rate != w.Rate || len(g.Samples) != len(w.Samples) {
					t.Fatalf("bps %v: got %d samples at %d Hz, want %d at %d Hz",
						bps, len(g.Samples), g.Rate, len(w.Samples), w.Rate)
				}
				for i := range w.Samples {
					if math.Float64bits(g.Samples[i]) != math.Float64bits(w.Samples[i]) {
						t.Fatalf("bps %v: sample %d = %v, want %v", bps, i, g.Samples[i], w.Samples[i])
					}
				}
				if a, b := got.rng.Int63(), dec.rng.Int63(); a != b {
					t.Errorf("bps %v: noise generator diverged after decode", bps)
				}
			}
		})
	}
}

// A decode allocates the clip and one backing array, whatever the loss;
// an empty frame list only the clip.
func TestAudioDecodeAllocs(t *testing.T) {
	frames, rate := shortFinalFrames(t)
	for _, lp := range lossPatterns {
		ptrs := lp.mask(framePtrs(frames))
		want := 2.0
		if len(ptrs) == 0 {
			want = 1
		}
		d := NewAudioDecoder(1)
		if n := testing.AllocsPerRun(20, func() { d.Decode(ptrs, rate, 45_000) }); n != want {
			t.Errorf("%s: %v allocs per decode, want %v", lp.name, n, want)
		}
	}
}

var sinkClip *media.AudioClip

// BenchmarkAudioDecode is one receiver's audio decode at the tiny
// scale's 8 s clip with every tenth frame lost.
func BenchmarkAudioDecode(b *testing.B) {
	clip := media.NewSpeech(8, 11)
	ptrs := framePtrs(NewAudioEncoder(45_000).Encode(clip))
	for i := 0; i < len(ptrs); i += 10 {
		ptrs[i] = nil
	}
	d := NewAudioDecoder(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClip = d.Decode(ptrs, clip.Rate, 45_000)
	}
}
