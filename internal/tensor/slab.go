package tensor

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// The on-disk formats built on tensors (.gh5 databases, .gmod models)
// store float64 values as runs of little-endian IEEE-754 words. WriteSlab
// and ReadSlab move such a run in bulk, never with a call per element.

// littleEndianHost is read once from binary.NativeEndian: on a
// little-endian host a float64 slice already holds the file's bytes.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteSlab writes v to w as little-endian float64s, without allocating
// whatever its length. On a little-endian host the values' memory is the
// encoding, so v goes to w as one block of bytes, and once w's buffer
// is flushed a slab larger than it goes to the underlying writer
// uncopied. v's storage escapes through the view. A big-endian host
// encodes through w's free buffer space instead (writeSlabPortable).
func WriteSlab(w *bufio.Writer, v []float64) error {
	if littleEndianHost {
		_, err := w.Write(float64Bytes(v))
		return err
	}
	return writeSlabPortable(w, v)
}

// float64Bytes views v's storage as its 8*len(v) bytes in host order.
// The view aliases v, so it must not outlive it or be written through;
// it is the package's one unsafe conversion.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// writeSlabPortable is WriteSlab for any host byte order: it encodes
// straight into w's free buffer space and flushes only when the buffer
// is full.
func writeSlabPortable(w *bufio.Writer, v []float64) error {
	for len(v) > 0 {
		if w.Available() < 8 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		b := w.AvailableBuffer()
		n := min(len(v), cap(b)/8)
		for _, x := range v[:n] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// ReadSlab reads n little-endian float64s from r and appends them to
// dst, one io.ReadFull of at most len(buf) bytes per chunk (len(buf)
// must be at least 8). dst grows only by values that arrived, so a
// count promised by a forged header costs what the input really holds.
// A short input returns io.EOF or io.ErrUnexpectedEOF as io.ReadFull
// does, with the values read before it already appended.
func ReadSlab(dst []float64, r io.Reader, n int, buf []byte) ([]float64, error) {
	for n > 0 {
		k := min(n, len(buf)/8)
		b := buf[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return dst, err
		}
		at := len(dst)
		dst = append(dst, make([]float64, k)...)
		out := dst[at:]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		n -= k
	}
	return dst, nil
}
