package nn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenNet is the network of testdata/golden.gmod: every serialized
// layer kind (a residual container, float configs, conv and dense
// parameters), with its parameters overwritten by fixed bit patterns
// that include signed zeros, infinities, NaN payloads and subnormals.
func goldenNet() *Network {
	bits := math.Float64frombits
	special := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		bits(0x7ff8000000000001), bits(0x7ff0000000000002), bits(0xfff8dead0000beef),
		bits(1), bits(0x000fffffffffffff), bits(0x8008000000000000),
		math.MaxFloat64, -math.Pi,
	}
	net := NewNetwork(1)
	body := NewNetwork(2)
	body.Add(body.NewDense(4, 4), NewActivation(ActTanh))
	net.Add(NewChannelAffine(1, []float64{0.5, bits(1), 1}, []float64{-1, math.Copysign(0, -1), 3}),
		net.NewConv2D(1, 2, 2, 2, 1), NewMaxPool2D(2), NewFlatten(), net.NewConv1D(1, 2, 3, 1),
		net.NewDense(3, 4), NewActivation(ActReLU), NewResidual(body),
		net.NewDropout(0.1), net.NewDense(4, 1), NewAffine(3, -0.5))
	k := 0
	for _, p := range net.Params() {
		d := p.W.Data()
		for i := range d {
			if k%5 == 2 {
				d[i] = special[(k/5)%len(special)]
			} else {
				d[i] = float64(k)/8 - 3
			}
			k++
		}
	}
	return net
}

// TestGoldenModelBytes: Encode reproduces testdata/golden.gmod, written
// by the per-element encoder this format started with, byte for byte,
// and Load restores every parameter bit of it.
func TestGoldenModelBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden.gmod")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	net := goldenNet()
	var got bytes.Buffer
	if err := net.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Encode output (%d bytes) differs from %s (%d bytes)", got.Len(), golden, len(want))
	}
	loaded, err := Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantP, gotP := net.Params(), loaded.Params()
	if len(gotP) != len(wantP) {
		t.Fatalf("loaded %d params, want %d", len(gotP), len(wantP))
	}
	for i := range wantP {
		w, g := wantP[i].W.Data(), gotP[i].W.Data()
		if len(g) != len(w) {
			t.Fatalf("param %d: %d values, want %d", i, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("param %d value %d = %#x, want %#x", i, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}
	ca := loaded.Layers[0].Layer.(*ChannelAffine)
	if math.Float64bits(ca.Scales[1]) != 1 || math.Float64bits(ca.Shifts[1]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("channel affine configs = %v / %v, want a subnormal scale and a -0 shift", ca.Scales, ca.Shifts)
	}
}
