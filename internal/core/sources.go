package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/qoe"
)

// The source bank is the run's common random numbers. The paper plays
// the same low-motion and high-motion feeds to every platform and
// condition (§4.3), so a campaign's QoE cells do too: every cell of one
// run with the same (motion, profile, replica) replays one video tape,
// and every audio cell of a replica streams one speech clip. Cross-cell
// comparisons then carry no source-content variance, and the feeds are
// synthesised once per run instead of once per cell.
//
// Each entry is a pure function of its key and the root seed, so which
// cell builds it, on which goroutine, never changes a byte, and a
// /units worker holding only the request's seed rebuilds the same
// feeds. Replicas key their own entries, so they stay independent
// draws. Entries are shared read-only across forks: nothing writes a
// tape frame or a clip sample, and neither ever enters a per-testbed
// pool.

// sourceBank holds a root testbed's feeds.
type sourceBank struct {
	seed int64

	mu     sync.Mutex
	tapes  map[tapeKey]*media.Tape
	speech map[speechKey]*speechFeed
}

// tapeKey names one video feed.
type tapeKey struct {
	motion  media.MotionClass
	profile media.Profile
	rep     int
}

// speechKey names one speech clip.
type speechKey struct {
	dur time.Duration
	rep int
}

// speechFeed is a speech clip and its MOS-LQO reference spectrogram.
type speechFeed struct {
	once sync.Once
	clip *media.AudioClip
	ref  *qoe.AudioRef
}

// sources returns the bank this testbed's QoE cells read: the root
// testbed's, built on first use. Forks share their root's bank, so
// creating a fork, or running a lag unit on one, allocates nothing
// here.
func (tb *Testbed) sources() *sourceBank {
	root := tb
	if tb.bankRoot != nil {
		root = tb.bankRoot
	}
	root.bankOnce.Do(func() {
		root.bank = &sourceBank{
			seed:   root.seed,
			tapes:  make(map[tapeKey]*media.Tape),
			speech: make(map[speechKey]*speechFeed),
		}
	})
	return root.bank
}

// tape returns the video feed for k. The tape records frames lazily,
// so building the entry costs only the source's setup.
func (b *sourceBank) tape(k tapeKey, em *engineMetrics) *media.Tape {
	b.mu.Lock()
	t, ok := b.tapes[k]
	if !ok {
		t = b.newTape(k)
		b.tapes[k] = t
	}
	b.mu.Unlock()
	em.bankLookup("tape", ok)
	return t
}

// newTape builds the tape for k from its key-derived seed.
func (b *sourceBank) newTape(k tapeKey) *media.Tape {
	seed := shardSeed(b.seed, replicaKey(fmt.Sprintf("source/%s/%dx%d@%d",
		k.motion, k.profile.W, k.profile.H, k.profile.FPS), k.rep))
	return media.NewTape(media.NewSource(k.motion, k.profile, seed))
}

// speechClip returns the speech feed for k, synthesising the clip and
// its reference spectrogram on first use outside the bank lock.
func (b *sourceBank) speechClip(k speechKey, em *engineMetrics) *speechFeed {
	b.mu.Lock()
	s, ok := b.speech[k]
	if !ok {
		s = &speechFeed{}
		b.speech[k] = s
	}
	b.mu.Unlock()
	s.once.Do(func() {
		seed := shardSeed(b.seed, replicaKey("speech/"+k.dur.String(), k.rep))
		s.clip = media.NewSpeech(k.dur.Seconds(), seed)
		s.ref = qoe.NewAudioRef(s.clip)
	})
	em.bankLookup("clip", ok)
	return s
}
