package qoe

import (
	"math"
	"math/cmplx"
	"sync"

	"github.com/vcabench/vcabench/internal/media"
)

// The audio quality estimator follows the structure of ViSQOL: both clips
// are turned into band-energy spectrograms, a neurogram similarity (NSIM)
// is computed between aligned spectrogram frames, and the mean similarity
// is mapped onto the MOS-LQO scale (1 worst .. 5 best). It is not a
// bit-exact ViSQOL, but it is monotone under the same degradations the
// paper induced: packet loss, concealment artifacts and coding noise.

const (
	specWindow = 512 // 32 ms at 16 kHz
	specHop    = 256
	specBands  = 16
	specFloor  = -60 // dB floor
)

// fft computes an in-place radix-2 FFT. len(x) must be a power of two
// and tw must be twiddles(len(x)).
func fft(x, tw []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		w := tw[half-1 : length-1]
		for i := 0; i < n; i += length {
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w[j]
				x[i+j] = u + v
				x[i+j+half] = u - v
			}
		}
	}
}

// twiddles returns fft's table for length n: for each stage length L,
// at offset L/2-1, the L/2 factors w_j = exp(-2*pi*i/L)^j. They come
// from the running product w *= exp(-2*pi*i/L) starting at 1, the
// recurrence an inline butterfly loop would use, so a table-driven fft
// is bit-identical to one that recomputes them every call.
func twiddles(n int) []complex128 {
	tw := make([]complex128, 0, max(n-1, 0))
	for length := 2; length <= n; length <<= 1 {
		wl := cmplx.Exp(complex(0, -2*math.Pi/float64(length)))
		w := complex(1, 0)
		for j := 0; j < length/2; j++ {
			tw = append(tw, w)
			w *= wl
		}
	}
	return tw
}

// specPlan is everything spectrogram needs that depends only on the
// window and the sample rate: the Hann window, each band's FFT bin range
// [lo, hi) and fft's twiddles. Plans are built once per rate and then
// shared read-only.
type specPlan struct {
	hann   []float64
	lo, hi [specBands]int
	tw     []complex128
}

// specPlans caches one *specPlan per sample rate. Cells on different
// workers score audio concurrently, hence the sync.Map.
var specPlans sync.Map

func planFor(rate int) *specPlan {
	if p, ok := specPlans.Load(rate); ok {
		return p.(*specPlan)
	}
	// Bands are log-spaced between 100 Hz and 7 kHz.
	fLo, fHi := 100.0, 7000.0
	if nyquist := float64(rate) / 2; fHi > nyquist {
		fHi = nyquist * 0.95
	}
	var edges [specBands + 1]float64
	for i := range edges {
		edges[i] = fLo * math.Pow(fHi/fLo, float64(i)/float64(specBands))
	}
	binHz := float64(rate) / specWindow
	p := &specPlan{hann: make([]float64, specWindow), tw: twiddles(specWindow)}
	for i := range p.hann {
		p.hann[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(specWindow-1))
	}
	for b := 0; b < specBands; b++ {
		lo := int(edges[b] / binHz)
		hi := int(edges[b+1] / binHz)
		if hi <= lo {
			hi = lo + 1
		}
		p.lo[b], p.hi[b] = lo, min(hi, specWindow/2)
	}
	got, _ := specPlans.LoadOrStore(rate, p)
	return got.(*specPlan)
}

// spectrogram returns band-energy frames in dB, clamped to specFloor.
// Every frame's row is a window of one backing array.
func spectrogram(c *media.AudioClip) [][]float64 {
	if len(c.Samples) < specWindow {
		return nil
	}
	p := planFor(c.Rate)
	frames := (len(c.Samples)-specWindow)/specHop + 1
	out := make([][]float64, frames)
	rows := make([]float64, frames*specBands)
	buf := make([]complex128, specWindow)
	for t := range out {
		off := t * specHop
		for i := 0; i < specWindow; i++ {
			buf[i] = complex(c.Samples[off+i]*p.hann[i], 0)
		}
		fft(buf, p.tw)
		bands := rows[t*specBands : (t+1)*specBands : (t+1)*specBands]
		for b := 0; b < specBands; b++ {
			var e float64
			for k := p.lo[b]; k < p.hi[b]; k++ {
				e += real(buf[k])*real(buf[k]) + imag(buf[k])*imag(buf[k])
			}
			db := float64(specFloor)
			if e > 0 {
				db = 10 * math.Log10(e)
				if db < specFloor {
					db = specFloor
				}
			}
			bands[b] = db
		}
		out[t] = bands
	}
	return out
}

// dynamicRange is the scored dynamic range below the reference's peak
// band energy. Content below it — including inaudible coding noise — is
// clamped to the floor, mirroring how ViSQOL's perceptual front end
// ignores sub-threshold energy.
const dynamicRange = 50.0

// nsim computes the mean neurogram similarity between two spectrograms,
// in [0, 1]. Both are clamped to a floor dynamicRange dB below the
// reference peak, and only reference-active frames are scored (ViSQOL
// likewise scores only active patches).
func nsim(ref, deg [][]float64) float64 {
	n := len(ref)
	if len(deg) < n {
		n = len(deg)
	}
	if n == 0 {
		return 0
	}
	peak := math.Inf(-1)
	for t := 0; t < n; t++ {
		for b := 0; b < specBands; b++ {
			if ref[t][b] > peak {
				peak = ref[t][b]
			}
		}
	}
	floor := peak - dynamicRange
	clamp := func(v float64) float64 {
		if v < floor {
			return floor
		}
		return v
	}
	activity := floor + 0.3*dynamicRange
	const c1 = 1.0
	const c2 = 5.0
	var sum float64
	var cnt int
	for t := 0; t < n; t++ {
		var level float64
		for b := 0; b < specBands; b++ {
			level += clamp(ref[t][b])
		}
		if level/specBands < activity {
			continue // reference is (near-)silent here
		}
		for b := 0; b < specBands; b++ {
			r := clamp(ref[t][b]) - floor // in [0, dynamicRange]
			d := clamp(deg[t][b]) - floor
			// Luminance-style similarity on band energies plus a local
			// structure term across the band axis.
			lum := (2*r*d + c1) / (r*r + d*d + c1)
			var sr, sd float64
			if b > 0 {
				sr = clamp(ref[t][b]) - clamp(ref[t][b-1])
				sd = clamp(deg[t][b]) - clamp(deg[t][b-1])
			}
			str := (2*sr*sd + c2) / (sr*sr + sd*sd + c2)
			sum += lum * str
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	v := sum / float64(cnt)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// MOSLQO estimates the listening-quality MOS (1..5) of a degraded clip
// against its reference. Clips should be loudness-normalized and aligned
// first (see media.AudioClip.Normalize and AlignAudio).
func MOSLQO(ref, deg *media.AudioClip) float64 {
	return NewAudioRef(ref).MOSLQO(deg)
}

// AudioRef is a reference clip's spectrogram, built once and scored
// against any number of degraded clips. It is read-only after
// NewAudioRef, so goroutines may share it.
type AudioRef struct {
	spec [][]float64
}

// NewAudioRef builds the reference side of MOSLQO.
func NewAudioRef(ref *media.AudioClip) *AudioRef {
	return &AudioRef{spec: spectrogram(ref)}
}

// MOSLQO scores deg against the reference, bit for bit as
// MOSLQO(ref, deg) does.
func (r *AudioRef) MOSLQO(deg *media.AudioClip) float64 {
	sr := r.spec
	sd := spectrogram(deg)
	if len(sr) == 0 || len(sd) == 0 {
		return 1
	}
	s := nsim(sr, sd)
	// Map similarity to the MOS scale. The exponent sharpens the top of
	// the scale so that transparent coding lands near 4.2-4.8 and heavy
	// degradation falls quickly below 3.
	mos := 1 + 4*math.Pow(s, 4)
	if mos > 5 {
		mos = 5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}
