package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode: the .gmod decoder never panics on truncated or forged
// bytes, and a network it accepts re-encodes to a decode fixed point —
// decoding the re-encoded bytes and encoding again yields the same
// bytes. Seeds are a saved MLP (with an input normalizer, a residual
// block and dropout), a saved conv net, and truncated copies of both.
func FuzzDecode(f *testing.F) {
	mlp := NewNetwork(1)
	body := NewNetwork(2)
	body.Add(body.NewDense(4, 4), NewActivation(ActTanh))
	mlp.Add(NewChannelAffine(1, []float64{0.5, 2, 1}, []float64{-1, 0, 3}),
		mlp.NewDense(3, 4), NewActivation(ActReLU), NewResidual(body),
		mlp.NewDropout(0.1), mlp.NewDense(4, 1))
	conv := NewNetwork(3)
	conv.Add(conv.NewConv2D(1, 2, 2, 2, 1), NewMaxPool2D(2), NewFlatten(),
		conv.NewDense(2*2*2, 1), NewAffine(3, -0.5))

	dir := f.TempDir()
	for i, net := range []*Network{mlp, conv} {
		path := filepath.Join(dir, "seed.gmod")
		if err := net.Save(path); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}

	encode := func(t *testing.T, n *Network) []byte {
		var buf bytes.Buffer
		if err := n.Encode(&buf); err != nil {
			t.Fatalf("accepted network does not re-encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encode(t, net)
		again, err := Decode(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded network does not decode: %v", err)
		}
		if twice := encode(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encode is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
