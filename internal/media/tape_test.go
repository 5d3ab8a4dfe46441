package media

import (
	"bytes"
	"sync"
	"testing"
)

// A tape replays exactly the frames its source synthesises, and every
// playback of it shares the same frame pointers.
func TestTapeReplaysSourceFrames(t *testing.T) {
	for _, class := range []MotionClass{LowMotion, HighMotion} {
		want := Record(NewSource(class, QuickProfile, 42), 50)
		tape := NewTape(NewSource(class, QuickProfile, 42))
		a, b := tape.Play(), tape.Play()
		if w, h := a.Dims(); w != QuickProfile.W || h != QuickProfile.H || a.FPS() != QuickProfile.FPS {
			t.Fatalf("%v: playback geometry %dx%d@%d", class, w, h, a.FPS())
		}
		for i, wf := range want {
			fa, fb := a.Next(), b.Next()
			if fa != fb {
				t.Fatalf("%v frame %d: playbacks got different pointers", class, i)
			}
			if !bytes.Equal(fa.Pix, wf.Pix) {
				t.Fatalf("%v frame %d differs from the source's", class, i)
			}
		}
		a.Rewind()
		if a.Next() != tape.Frame(0) {
			t.Errorf("%v: rewound playback does not restart at frame 0", class)
		}
		if tape.Len() != len(want) {
			t.Errorf("%v: tape recorded %d frames, want %d", class, tape.Len(), len(want))
		}
	}
}

// Readers racing to extend a tape see the frames a serial reader sees.
func TestTapeConcurrentReaders(t *testing.T) {
	want := Record(NewSource(HighMotion, QuickProfile, 7), 60)
	tape := NewTape(NewSource(HighMotion, QuickProfile, 7))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := tape.Play()
			for range want {
				p.Next()
			}
		}()
	}
	wg.Wait()
	for i, wf := range want {
		if !bytes.Equal(tape.Frame(i).Pix, wf.Pix) {
			t.Fatalf("frame %d differs from the serial source's", i)
		}
	}
}

// BenchmarkNext is source synthesis per frame at the quick profile.
func BenchmarkNext(b *testing.B) {
	for _, class := range []MotionClass{LowMotion, HighMotion} {
		b.Run(class.String(), func(b *testing.B) {
			src := NewSource(class, QuickProfile, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Next()
			}
		})
	}
}
