package qoe

import (
	"math"

	"github.com/vcabench/vcabench/internal/media"
)

// statsBudgetFloats bounds the float64s a Scorer may retain in its
// per-image stat cache (~48 MB). Past the budget the oldest entries are
// evicted FIFO — eviction order is insertion order, never map order, so
// a Scorer's behaviour is deterministic.
const statsBudgetFloats = 6 << 20

// Scorer computes the per-frame video metrics with memoization across a
// study. Two layers make repeated scoring cheap without changing a
// single output bit:
//
//   - a pair cache keyed by frame identity: decoders hand every receiver
//     the same reconstructed-frame pointer and repeat it across frozen
//     display slots, so one (ref, shown) pair is typically scored many
//     times per cell — and metric evaluation is a pure function of the
//     two frames;
//   - a per-image stat cache (float image, Gaussian means, raw second
//     moments, the VIF pyramid): the one-image half of SSIM/VIFp, reused
//     when the same frame participates in several distinct pairs.
//
// Frames must not be mutated after being scored (sources and codecs
// never do). A Scorer is single-goroutine, like the testbed that owns
// it; independent forks get independent Scorers. Its float images come
// from a Buffers pool, which may outlive it (see NewScorerWith).
type Scorer struct {
	pool   *fimgPool
	pairs  map[pairKey]pairScores
	stats  map[*media.Frame]*imgStats
	order  []*media.Frame // FIFO insertion order for eviction
	head   int            // first live index in order
	floats int            // retained floats across stats
	blacks map[[2]int]*media.Frame
	kssim  []float64
	kvif   [4][]float64

	// reused0 and allocated0 are the pool's get counts when the Scorer
	// was made, so BufferGets reports this Scorer's own.
	reused0, allocated0 int
}

type pairKey struct{ ref, dist *media.Frame }

type pairScores struct{ psnr, ssim, vifp float64 }

// vifScale holds one VIF pyramid level: the scaled image and its
// Gaussian mean / raw second moment under that scale's kernel.
type vifScale struct{ x, mu, sxx *fimg }

type imgStats struct {
	base      *fimg // full-res float image; also the VIF scale-1 input
	ssimMu    *fimg
	ssimSxx   *fimg
	vif       [4]vifScale
	vifScales int
	vifDone   bool
	// denLog caches, per scale, the elementwise reference-side VIF
	// denominator log10(1 + vx/sigma^2) — a pure function of this
	// image's (mu, sxx), built lazily the first time the image is the
	// reference of a pair and reused for every later pair sharing it.
	denLog [4]*fimg
	floats int
}

// NewScorer creates an empty scorer on a pool of its own: the one-shot
// form, for a caller that scores one study and drops everything.
func NewScorer() *Scorer { return NewScorerWith(NewBuffers()) }

// NewScorerWith creates an empty scorer that draws its float images from
// b and, on Release, gives them back to it. Kernels are fixed by the
// metric definitions, so they are built once here.
func NewScorerWith(b *Buffers) *Scorer {
	sc := &Scorer{
		pool:       &b.fimgPool,
		reused0:    b.reused,
		allocated0: b.allocated,
		pairs:      make(map[pairKey]pairScores),
		stats:      make(map[*media.Frame]*imgStats),
		blacks:     make(map[[2]int]*media.Frame),
		kssim:      gaussianKernel(ssimWindow, ssimSigma),
	}
	for scale := 1; scale <= 4; scale++ {
		n := 1<<(5-scale) + 1 // 17, 9, 5, 3
		sc.kvif[scale-1] = gaussianKernel(n, float64(n)/5)
	}
	return sc
}

// Release returns every float image the scorer retains to its pool, in
// insertion order, and empties its stat cache. Pair scores stay cached,
// so the scorer remains usable; it only rebuilds stats it needs again.
func (sc *Scorer) Release() {
	for _, f := range sc.order[sc.head:] {
		sc.releaseStats(sc.stats[f])
	}
	clear(sc.stats)
	clear(sc.order)
	sc.order, sc.head, sc.floats = sc.order[:0], 0, 0
}

// BufferGets reports how many float images this scorer took from its
// pool, split into reused buffers and fresh allocations.
func (sc *Scorer) BufferGets() (reused, allocated int) {
	return sc.pool.reused - sc.reused0, sc.pool.allocated - sc.allocated0
}

// scorePair returns the three metrics for one (ref, shown) pair, from
// the cache when the pair was scored before.
func (sc *Scorer) scorePair(ref, shown *media.Frame) pairScores {
	key := pairKey{ref, shown}
	if ps, ok := sc.pairs[key]; ok {
		return ps
	}
	ps := pairScores{
		psnr: PSNR(ref, shown),
		ssim: sc.ssimPair(ref, shown),
		vifp: sc.vifPair(ref, shown),
	}
	sc.pairs[key] = ps
	// Trim only between pairs: an eviction mid-pair could recycle stat
	// buffers the pair is still reading.
	sc.trim()
	return ps
}

// blackFor returns the all-black stand-in frame for never-shown slots.
func (sc *Scorer) blackFor(w, h int) *media.Frame {
	key := [2]int{w, h}
	if f, ok := sc.blacks[key]; ok {
		return f
	}
	f := media.NewFrame(w, h)
	sc.blacks[key] = f
	return f
}

func (sc *Scorer) statsEntry(f *media.Frame) *imgStats {
	if st, ok := sc.stats[f]; ok {
		return st
	}
	st := &imgStats{}
	sc.stats[f] = st
	sc.order = append(sc.order, f)
	return st
}

// retain accounts a cached buffer against the scorer's budget.
func (sc *Scorer) retain(st *imgStats, im *fimg) *fimg {
	st.floats += len(im.v)
	sc.floats += len(im.v)
	return im
}

// baseOf returns (building if needed) the frame's full-res float image.
func (sc *Scorer) baseOf(st *imgStats, f *media.Frame) *fimg {
	if st.base == nil {
		st.base = sc.retain(st, fromFrame(sc.pool, f))
	}
	return st.base
}

// ssimStats builds the one-image half of SSIM: Gaussian mean and raw
// second moment under the 11x11 window.
func (sc *Scorer) ssimStats(f *media.Frame) *imgStats {
	st := sc.statsEntry(f)
	if st.ssimMu == nil {
		x := sc.baseOf(st, f)
		st.ssimMu = sc.retain(st, convValid(sc.pool, x, sc.kssim))
		xx := mul(sc.pool, x, x)
		st.ssimSxx = sc.retain(st, convValid(sc.pool, xx, sc.kssim))
		sc.pool.put(xx)
	}
	return st
}

// vifStats builds the one-image half of VIFp: the four-scale pyramid
// with each level's mean and raw second moment.
func (sc *Scorer) vifStats(f *media.Frame) *imgStats {
	st := sc.statsEntry(f)
	if st.vifDone {
		return st
	}
	st.vifDone = true
	cur := sc.baseOf(st, f)
	for scale := 1; scale <= 4; scale++ {
		n := 1<<(5-scale) + 1
		k := sc.kvif[scale-1]
		if scale > 1 {
			c := convValid(sc.pool, cur, k)
			next := downsample2(sc.pool, c)
			sc.pool.put(c)
			cur = next
			if cur.w < n || cur.h < n {
				sc.pool.put(cur)
				break
			}
			sc.retain(st, cur)
		}
		xx := mul(sc.pool, cur, cur)
		st.vif[scale-1] = vifScale{
			x:   cur,
			mu:  sc.retain(st, convValid(sc.pool, cur, k)),
			sxx: sc.retain(st, convValid(sc.pool, xx, k)),
		}
		sc.pool.put(xx)
		st.vifScales = scale
	}
	return st
}

// denLogFor returns (building on first use) the cached reference-side
// VIF denominator logs for one pyramid scale of st:
// log10(1 + max(0, sxx-mu^2)/sigma^2), elementwise. The inputs are the
// already-cached scale stats, so the cached values are bit-identical to
// what vifPair's loop computed inline before.
func (sc *Scorer) denLogFor(st *imgStats, s int) *fimg {
	if st.denLog[s] == nil {
		v := &st.vif[s]
		dl := sc.pool.get(v.mu.w, v.mu.h)
		mu, sxx := v.mu.v, v.sxx.v
		for i := range dl.v {
			mx := mu[i]
			vx := sxx[i] - mx*mx
			if vx < 0 {
				vx = 0
			}
			dl.v[i] = math.Log10(1 + vx/vifSigmaNsq)
		}
		st.denLog[s] = sc.retain(st, dl)
	}
	return st.denLog[s]
}

// trim evicts the oldest per-image stats until the retained-float budget
// holds again. Called only between pair computations.
func (sc *Scorer) trim() {
	for sc.floats > statsBudgetFloats && sc.head < len(sc.order) {
		f := sc.order[sc.head]
		sc.order[sc.head] = nil
		sc.head++
		st := sc.stats[f]
		delete(sc.stats, f)
		sc.floats -= st.floats
		sc.releaseStats(st)
	}
	// Compact the FIFO once the dead prefix dominates.
	if sc.head > 64 && sc.head*2 > len(sc.order) {
		sc.order = append(sc.order[:0], sc.order[sc.head:]...)
		sc.head = 0
	}
}

func (sc *Scorer) releaseStats(st *imgStats) {
	sc.pool.put(st.base)
	sc.pool.put(st.ssimMu)
	sc.pool.put(st.ssimSxx)
	for s := 0; s < st.vifScales; s++ {
		if s > 0 { // vif[0].x is base, already released
			sc.pool.put(st.vif[s].x)
		}
		sc.pool.put(st.vif[s].mu)
		sc.pool.put(st.vif[s].sxx)
		sc.pool.put(st.denLog[s]) // put ignores nil
	}
}
