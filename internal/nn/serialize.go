package nn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

// The .gmod format stands in for TorchScript archives: a self-describing
// binary file a runtime can load by path (the model() clause) without any
// knowledge of how the model was built.
//
// Layout (little-endian):
//
//	magic   uint32  'GMOD'
//	version uint32
//	nLayers uint32
//	per layer:
//	  kind    string      (uint32 length + bytes)
//	  nInts   uint32, ints    []int64
//	  nFloats uint32, floats  []float64
//	  nParams uint32
//	  per param:
//	    name  string
//	    rank  uint32, shape []int64
//	    data  []float64
const (
	gmodMagic   = 0x474d4f44 // "GMOD"
	gmodVersion = 1
)

// layerSpec is the serializable description of a layer's configuration.
type layerSpec struct {
	Kind   string
	Ints   []int
	Floats []float64
}

// Save writes the network to path in .gmod format.
func (n *Network) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	if err := n.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// containerLayer is implemented by layers that hold a sub-network
// (Residual); the serializer recurses into them.
type containerLayer interface {
	subNetwork() *Network
}

// Encode writes the network's .gmod representation to dst, through a
// 64 KiB buffer (dst itself when it already is one) that it flushes
// before returning.
func (n *Network) Encode(dst io.Writer) error {
	w := bufio.NewWriterSize(dst, 1<<16)
	if err := writeU32(w, gmodMagic); err != nil {
		return err
	}
	if err := writeU32(w, gmodVersion); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(n.Layers))); err != nil {
		return err
	}
	for _, e := range n.Layers {
		if err := encodeLayer(w, e.Layer); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Sum is the sha256 of the network's .gmod encoding, which is the
// sha256 of the file Save writes and of the file Load read it from: the
// identity a .quant sidecar records to bind itself to the weights it
// was fitted on.
func (n *Network) Sum() ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := n.Encode(h); err != nil {
		return [sha256.Size]byte{}, err
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

func encodeLayer(w *bufio.Writer, l Layer) error {
	sp := l.spec()
	if err := writeString(w, sp.Kind); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(sp.Ints))); err != nil {
		return err
	}
	for _, v := range sp.Ints {
		if err := writeI64(w, int64(v)); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(sp.Floats))); err != nil {
		return err
	}
	if err := tensor.WriteSlab(w, sp.Floats); err != nil {
		return err
	}
	// Containers store their parameters inside their sub-layers.
	if c, ok := l.(containerLayer); ok {
		if err := writeU32(w, 0); err != nil {
			return err
		}
		sub := c.subNetwork()
		if err := writeU32(w, uint32(len(sub.Layers))); err != nil {
			return err
		}
		for _, e := range sub.Layers {
			if err := encodeLayer(w, e.Layer); err != nil {
				return err
			}
		}
		return nil
	}
	params := l.Params()
	if err := writeU32(w, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(w, p.Name); err != nil {
			return err
		}
		shape := p.W.Shape()
		if err := writeU32(w, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := writeI64(w, int64(d)); err != nil {
				return err
			}
		}
		if err := tensor.WriteSlab(w, p.W.Data()); err != nil {
			return err
		}
	}
	return writeU32(w, 0) // no sub-layers
}

// Load reads a .gmod model from path.
func Load(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	defer f.Close()
	n, err := Decode(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("nn: load %s: %w", path, err)
	}
	return n, nil
}

// Decode reads a .gmod representation from r.
func Decode(r io.Reader) (*Network, error) {
	magic, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if magic != gmodMagic {
		return nil, fmt.Errorf("bad magic %#x: not a .gmod model", magic)
	}
	version, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if version != gmodVersion {
		return nil, fmt.Errorf("unsupported .gmod version %d", version)
	}
	nLayers, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nLayers > 1<<16 {
		return nil, fmt.Errorf("implausible layer count %d", nLayers)
	}
	net := NewNetwork(0)
	buf := make([]byte, 1<<16) // one slab read buffer for every layer
	for li := uint32(0); li < nLayers; li++ {
		layer, err := decodeLayer(r, buf, net, 0)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", li, err)
		}
		net.Add(layer)
	}
	return net, nil
}

// decodeLayer reads one serialized layer (recursing into containers),
// reading its float slabs through buf.
func decodeLayer(r io.Reader, buf []byte, net *Network, depth int) (Layer, error) {
	if depth > 8 {
		return nil, fmt.Errorf("container nesting too deep")
	}
	kind, err := readString(r)
	if err != nil {
		return nil, err
	}
	nInts, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nInts > 64 {
		return nil, fmt.Errorf("implausible int config count %d", nInts)
	}
	ints := make([]int, nInts)
	for i := range ints {
		v, err := readI64(r)
		if err != nil {
			return nil, err
		}
		ints[i] = int(v)
	}
	nFloats, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nFloats > 4096 {
		return nil, fmt.Errorf("implausible float config count %d", nFloats)
	}
	floats, err := tensor.ReadSlab(nil, r, int(nFloats), buf)
	if err != nil {
		return nil, err
	}
	layer, err := buildLayer(net, layerSpec{Kind: kind, Ints: ints, Floats: floats})
	if err != nil {
		return nil, err
	}
	nParams, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if _, isContainer := layer.(containerLayer); !isContainer {
		params := layer.Params()
		if int(nParams) != len(params) {
			return nil, fmt.Errorf("layer %s: file has %d params, layer wants %d", kind, nParams, len(params))
		}
		for pi, p := range params {
			name, err := readString(r)
			if err != nil {
				return nil, err
			}
			if name != p.Name {
				return nil, fmt.Errorf("param %d: name %q, want %q", pi, name, p.Name)
			}
			rank, err := readU32(r)
			if err != nil {
				return nil, err
			}
			if rank > 8 {
				return nil, fmt.Errorf("implausible param rank %d", rank)
			}
			shape := make([]int, rank)
			count := 1
			for i := range shape {
				v, err := readI64(r)
				if err != nil {
					return nil, err
				}
				if v < 0 || v > 1<<24 {
					return nil, fmt.Errorf("implausible dim %d", v)
				}
				shape[i] = int(v)
				count *= shape[i]
			}
			want := p.W.Shape()
			if len(shape) != len(want) {
				return nil, fmt.Errorf("param %q: rank %d, want %d", name, rank, len(want))
			}
			for i := range shape {
				if shape[i] != want[i] {
					return nil, fmt.Errorf("param %q: shape %v, want %v", name, shape, want)
				}
			}
			// The shape matches, so the count values land in place,
			// in the parameter's own storage.
			if _, err := tensor.ReadSlab(p.W.Data()[:0], r, count, buf); err != nil {
				return nil, err
			}
		}
	} else if nParams != 0 {
		return nil, fmt.Errorf("container %s with inline params", kind)
	}
	nSub, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nSub > 1<<12 {
		return nil, fmt.Errorf("implausible sub-layer count %d", nSub)
	}
	if c, ok := layer.(containerLayer); ok {
		sub := c.subNetwork()
		for si := uint32(0); si < nSub; si++ {
			sl, err := decodeLayer(r, buf, sub, depth+1)
			if err != nil {
				return nil, fmt.Errorf("sub-layer %d: %w", si, err)
			}
			sub.Add(sl)
		}
	} else if nSub != 0 {
		return nil, fmt.Errorf("non-container %s with sub-layers", kind)
	}
	return layer, nil
}

// maxLayerWeights bounds the product of a layer's size configs, which
// is at least its weight count, so a forged config cannot size an
// allocation before the weights it claims are read.
const maxLayerWeights = 1 << 24

// buildLayer reconstructs a layer from its serialized spec.
func buildLayer(net *Network, sp layerSpec) (Layer, error) {
	wantInts := func(n int) error {
		if len(sp.Ints) != n {
			return fmt.Errorf("%s wants %d int configs, got %d", sp.Kind, n, len(sp.Ints))
		}
		prod := 1
		for _, v := range sp.Ints {
			if v < 1 || v > maxLayerWeights/prod {
				return fmt.Errorf("%s: implausible size configs %v", sp.Kind, sp.Ints)
			}
			prod *= v
		}
		return nil
	}
	switch {
	case sp.Kind == "dense":
		if err := wantInts(2); err != nil {
			return nil, err
		}
		return net.NewDense(sp.Ints[0], sp.Ints[1]), nil
	case sp.Kind == "conv1d":
		if err := wantInts(4); err != nil {
			return nil, err
		}
		return net.NewConv1D(sp.Ints[0], sp.Ints[1], sp.Ints[2], sp.Ints[3]), nil
	case sp.Kind == "conv2d":
		if err := wantInts(5); err != nil {
			return nil, err
		}
		return net.NewConv2D(sp.Ints[0], sp.Ints[1], sp.Ints[2], sp.Ints[3], sp.Ints[4]), nil
	case sp.Kind == "maxpool1d":
		if err := wantInts(1); err != nil {
			return nil, err
		}
		return NewMaxPool1D(sp.Ints[0]), nil
	case sp.Kind == "maxpool2d":
		if err := wantInts(1); err != nil {
			return nil, err
		}
		return NewMaxPool2D(sp.Ints[0]), nil
	case sp.Kind == "flatten":
		return NewFlatten(), nil
	case sp.Kind == "residual":
		return NewResidual(NewNetwork(net.rng.Int63())), nil
	case sp.Kind == "affine":
		if len(sp.Floats) != 2 {
			return nil, fmt.Errorf("affine wants 2 float configs")
		}
		return NewAffine(sp.Floats[0], sp.Floats[1]), nil
	case sp.Kind == "chanaffine":
		if len(sp.Floats) == 0 || len(sp.Floats)%2 != 0 {
			return nil, fmt.Errorf("channel affine wants 1 int and 2k float configs")
		}
		if err := wantInts(1); err != nil {
			return nil, err
		}
		k := len(sp.Floats) / 2
		return NewChannelAffine(sp.Ints[0], sp.Floats[:k], sp.Floats[k:]), nil
	case sp.Kind == "dropout":
		if len(sp.Floats) != 1 {
			return nil, fmt.Errorf("dropout wants 1 float config")
		}
		return net.NewDropout(sp.Floats[0]), nil
	case len(sp.Kind) > 4 && sp.Kind[:4] == "act:":
		fn := sp.Kind[4:]
		if !validActivation(fn) {
			return nil, fmt.Errorf("unknown activation %q", fn)
		}
		return NewActivation(fn), nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", sp.Kind)
	}
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeI64(w io.Writer, v int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	_, err := w.Write(buf[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readI64(r io.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
