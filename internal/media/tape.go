package media

import "sync"

// Tape records a Source once for many readers: every reader of frame i
// gets the same *Frame, bit for bit the i-th frame the source produced.
// Frames are synthesised lazily, strictly in frame order, under the
// tape's lock, so which reader asks first never changes a pixel.
//
// Tape frames are shared and read-only. Nothing may write to them or
// hand them to a FramePool: other readers, possibly on other
// goroutines, hold the same pointers.
type Tape struct {
	w, h, fps int

	mu     sync.Mutex
	src    Source
	frames []*Frame
}

// NewTape records src, which the tape owns from here on.
func NewTape(src Source) *Tape {
	w, h := src.Dims()
	return &Tape{w: w, h: h, fps: src.FPS(), src: src}
}

// Frame returns the i-th frame, synthesising any not yet recorded.
func (t *Tape) Frame(i int) *Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.frames) <= i {
		t.frames = append(t.frames, t.src.Next())
	}
	return t.frames[i]
}

// Len returns the number of frames recorded so far.
func (t *Tape) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.frames)
}

// Play returns a Source that replays the tape from frame 0. Unlike
// other sources, its frames are the tape's shared, read-only ones.
func (t *Tape) Play() *Playback { return &Playback{tape: t} }

// Playback is one reader's cursor over a Tape.
type Playback struct {
	tape *Tape
	next int
}

// Next returns the tape's next frame.
func (p *Playback) Next() *Frame {
	f := p.tape.Frame(p.next)
	p.next++
	return f
}

// Rewind restarts the playback at frame 0.
func (p *Playback) Rewind() { p.next = 0 }

// Dims returns the frame geometry.
func (p *Playback) Dims() (w, h int) { return p.tape.w, p.tape.h }

// FPS returns the nominal frame rate.
func (p *Playback) FPS() int { return p.tape.fps }
