package h5

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// forgedFile is a .gh5 header plus one record header for group "g",
// dataset "d" with the given shape and no data.
func forgedFile(dims ...int64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, fileMagic)
	b = le.AppendUint32(b, fileVersion)
	b = le.AppendUint32(b, recordMagic)
	for _, s := range []string{"g", "d"} {
		b = le.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = le.AppendUint32(b, uint32(len(dims)))
	for _, d := range dims {
		b = le.AppendUint64(b, uint64(d))
	}
	return b
}

// openBytes writes b to a fresh file and opens it.
func openBytes(t testing.TB, b []byte) (*File, error) {
	path := filepath.Join(t.TempDir(), "f.gh5")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

// TestOpenForgedCountAllocates: a 34-byte file whose one record claims
// 2^28 elements is a truncated tail, and opening it allocates what the
// file holds, not the 2 GiB the header promises.
func TestOpenForgedCountAllocates(t *testing.T) {
	b := forgedFile(1 << 28)
	if len(b) != 34 {
		t.Fatalf("forged file is %d bytes, want 34", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := openBytes(t, b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("a record cut short is a recoverable tail, got %v", err)
	}
	if n := f.NumRecords("g", "d"); n != 0 {
		t.Fatalf("recovered %d records from a data-less record", n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("opening the forged file allocated %d bytes, want < 1 MB", d)
	}
}

// TestOpenShapeOverflowFails: a 50-byte file whose dimensions
// 2^22 * 2^21 * 2^21 wrap the element count to 0 is corrupt, not an
// empty tensor of that shape.
func TestOpenShapeOverflowFails(t *testing.T) {
	b := forgedFile(1<<22, 1<<21, 1<<21)
	if len(b) != 50 {
		t.Fatalf("forged file is %d bytes, want 50", len(b))
	}
	if f, err := openBytes(t, b); err == nil {
		t.Fatalf("overflowing shape opened cleanly: %d records", f.NumRecords("g", "d"))
	}
}

// FuzzOpen: Open never panics, and every dataset of a file it accepts
// reads back as a tensor whose element count matches its shape.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.gh5")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	x, _ := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	w.Write("g", "d", x)
	w.WriteScalar("g", "s", 7)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(forgedFile(1 << 28))
	f.Add(forgedFile(1<<22, 1<<21, 1<<21))
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := openBytes(t, b)
		if err != nil {
			return
		}
		for _, g := range file.Groups() {
			for _, d := range file.Datasets(g) {
				v, err := file.Read(g, d)
				if err != nil {
					continue
				}
				if len(v.Contiguous().Data()) != tensor.NumElements(v.Shape()) {
					t.Fatalf("%s/%s: %d values for shape %v", g, d, len(v.Contiguous().Data()), v.Shape())
				}
			}
		}
	})
}
