package particlefilter

import (
	"math"
	"testing"
)

func smallConfig() Config {
	return Config{FrameSize: 32, NumFrames: 12, Particles: 512, Seed: 3}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{FrameSize: 8, NumFrames: 4, Particles: 16},
		{FrameSize: 32, NumFrames: 0, Particles: 16},
		{FrameSize: 32, NumFrames: 4, Particles: 0},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v: want error", c)
		}
	}
}

func TestVideoPixelsInRange(t *testing.T) {
	in, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Video {
		if v < 0 || v > 255 {
			t.Fatalf("pixel %d out of range: %g", i, v)
		}
	}
}

func TestTruthStaysInFrame(t *testing.T) {
	in, _ := New(smallConfig())
	fs := float64(in.Cfg.FrameSize)
	for f := 0; f < in.Cfg.NumFrames; f++ {
		if in.TruthX[f] < 0 || in.TruthX[f] >= fs || in.TruthY[f] < 0 || in.TruthY[f] >= fs {
			t.Fatalf("frame %d: truth (%g, %g) outside %gx%g", f, in.TruthX[f], in.TruthY[f], fs, fs)
		}
	}
}

func TestObjectBrighterThanBackground(t *testing.T) {
	in, _ := New(smallConfig())
	frame := in.Frame(0)
	fs := in.Cfg.FrameSize
	cx, cy := int(in.TruthX[0]), int(in.TruthY[0])
	objectPix := frame[cy*fs+cx]
	cornerPix := frame[0]
	if objectPix <= cornerPix {
		t.Fatalf("object pixel %g not brighter than corner %g", objectPix, cornerPix)
	}
}

func TestFilterTracksObject(t *testing.T) {
	in, _ := New(smallConfig())
	in.RunFilter()
	rmse := in.TrackRMSE()
	// The Rodinia filter tracks within a pixel or two on this easy video.
	if rmse > 3.0 {
		t.Fatalf("filter lost the object: RMSE %g", rmse)
	}
	if rmse == 0 {
		t.Fatal("exact zero RMSE is implausible for a stochastic filter")
	}
}

func TestFilterDeterministicGivenSeed(t *testing.T) {
	a, _ := New(smallConfig())
	b, _ := New(smallConfig())
	a.RunFilter()
	b.RunFilter()
	for f := range a.EstX {
		if a.EstX[f] != b.EstX[f] || a.EstY[f] != b.EstY[f] {
			t.Fatal("filter not deterministic")
		}
	}
}

func TestSynthesizeVideoChangesWithSeed(t *testing.T) {
	in, _ := New(smallConfig())
	x0 := append([]float64(nil), in.TruthX...)
	in.SynthesizeVideo(999)
	same := true
	for f := range x0 {
		if x0[f] != in.TruthX[f] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("new seed produced identical trajectory")
	}
}

func TestFrameAliasesVideo(t *testing.T) {
	in, _ := New(smallConfig())
	f := in.Frame(2)
	f[0] = -123
	if in.Video[2*in.Cfg.FrameSize*in.Cfg.FrameSize] != -123 {
		t.Fatal("Frame must alias the video buffer")
	}
}

func TestWeightsFormDistribution(t *testing.T) {
	in, _ := New(smallConfig())
	in.ResetFilter()
	in.RunFilterFrame(0)
	var sum float64
	for _, w := range in.weights {
		if w < 0 {
			t.Fatalf("negative weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", sum)
	}
}

func TestDirectiveCount(t *testing.T) {
	src := Directives("m", "d")
	count := 0
	for i := 0; i+1 < len(src); i++ {
		if src[i] == '\n' && src[i+1] == '#' {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("directive count = %d, want 4 (Table II)", count)
	}
}
