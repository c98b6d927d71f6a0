package tensor

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// slabSpecials are the values whose bit patterns a float64 round trip
// through a register could disturb: NaN payloads (signalling ones
// included), both zeros and infinities, subnormals and the extremes.
var slabSpecials = []uint64{
	0x7FF0000000000001, // signalling NaN, lowest payload
	0x7FF4000000000000, // signalling NaN, high payload
	0xFFF0000000000DEF, // negative signalling NaN
	0x7FF8000000000000, // quiet NaN
	0x7FF800000000BEEF, // quiet NaN with payload
	0xFFFFFFFFFFFFFFFF, // negative quiet NaN, all payload bits
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // -Inf
	0x0000000000000001, // smallest subnormal
	0x800FFFFFFFFFFFFF, // largest negative subnormal
	math.Float64bits(math.SmallestNonzeroFloat64 * 3),
	math.Float64bits(math.MaxFloat64),
	math.Float64bits(-1.5),
}

// slabValues returns n values cycling through slabSpecials, with a
// counter in between so no two runs of the cycle look alike.
func slabValues(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if i%3 == 0 {
			v[i] = math.Float64frombits(slabSpecials[(i/3)%len(slabSpecials)])
		} else {
			v[i] = float64(i) / 7
		}
	}
	return v
}

// encodeSlab writes offset filler bytes and then v through a bufio
// writer of the given size using write, returning the flushed bytes.
func encodeSlab(t *testing.T, write func(*bufio.Writer, []float64) error, size, offset int, v []float64) []byte {
	t.Helper()
	var out bytes.Buffer
	w := bufio.NewWriterSize(&out, size)
	if _, err := w.Write(bytes.Repeat([]byte{0xA5}, offset)); err != nil {
		t.Fatal(err)
	}
	if err := write(w, v); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWriteSlabMatchesPortable is the differential check of the slab
// writer: whichever path WriteSlab takes on this host must produce the
// bytes of the portable per-element encoder, for every special value,
// for lengths around the 64 KiB buffer's 8192 values, and from every
// fill level of the buffer's first word.
func TestWriteSlabMatchesPortable(t *testing.T) {
	for _, size := range []int{16, 1 << 16} {
		for _, n := range []int{0, 1, 2, len(slabSpecials), 8191, 8192, 8193, 3*8192 + 5} {
			v := slabValues(n)
			for offset := 0; offset < 8; offset++ {
				want := encodeSlab(t, writeSlabPortable, size, offset, v)
				if len(want) != offset+8*n {
					t.Fatalf("portable encoder wrote %d bytes for %d values at offset %d", len(want), n, offset)
				}
				for i, x := range v {
					b := want[offset+8*i:]
					got := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
						uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
					if got != math.Float64bits(x) {
						t.Fatalf("portable encoder: value %d is %#x, want %#x", i, got, math.Float64bits(x))
					}
				}
				if got := encodeSlab(t, WriteSlab, size, offset, v); !bytes.Equal(got, want) {
					t.Fatalf("buffer %d, %d values, offset %d: WriteSlab bytes differ from the portable encoder", size, n, offset)
				}
			}
		}
	}
}
