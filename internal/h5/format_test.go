package h5

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// specialValues are the float64 bit patterns a byte-layout change is
// most likely to lose: signed zeros, infinities, NaNs with payloads (a
// signalling one among them), subnormals and the extremes.
func specialValues() []float64 {
	bits := math.Float64frombits
	return []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		bits(0x7ff8000000000001), // quiet NaN, payload 1
		bits(0x7ff0000000000002), // signalling NaN
		bits(0xfff8dead0000beef), // negative NaN, payload
		bits(1),                  // smallest subnormal
		bits(0x000fffffffffffff), // largest subnormal
		bits(0x8008000000000000), // negative subnormal
		math.MaxFloat64, -math.SmallestNonzeroFloat64, -math.Pi, 1, 1e-300,
	}
}

// patterned returns n values: every seventh cycles through
// specialValues, the rest count up by one from 0.25.
func patterned(n int) []float64 {
	sp := specialValues()
	out := make([]float64, n)
	for i := range out {
		if i%7 == 3 {
			out[i] = sp[(i/7)%len(sp)]
		} else {
			out[i] = float64(i) + 0.25
		}
	}
	return out
}

// writeGolden writes the records of testdata/golden.gh5: special values,
// a scalar, a rank-0 tensor, an empty record and a strided view.
func writeGolden(w *Writer) error {
	sp := specialValues()
	x, err := tensor.FromSlice(sp, 3, 5)
	if err != nil {
		return err
	}
	y, err := tensor.FromSlice([]float64{1.5, -2.5, math.NaN()}, 3)
	if err != nil {
		return err
	}
	base, err := tensor.FromSlice(patterned(12), 3, 4)
	if err != nil {
		return err
	}
	view, err := base.Slice(1, 1, 4, 2)
	if err != nil {
		return err
	}
	if view, err = view.Transpose(0, 1); err != nil {
		return err
	}
	for _, rec := range []struct {
		group, name string
		t           *tensor.Tensor
	}{
		{"binomial", "inputs", x},
		{"binomial", "outputs", y},
		{"binomial", "inputs", x},
		{"other", "rank0", tensor.Scalar(math.Copysign(0, -1))},
		{"other", "empty", tensor.New(0, 3)},
		{"other", "strided", view},
	} {
		if err := w.Write(rec.group, rec.name, rec.t); err != nil {
			return err
		}
	}
	return w.WriteScalar("binomial", "runtime_ns", 1234.5)
}

// TestGoldenFileBytes: today's writer reproduces testdata/golden.gh5,
// written by the per-element encoder this format started with, byte for
// byte, and today's reader loads it with every bit pattern intact.
func TestGoldenFileBytes(t *testing.T) {
	golden := filepath.Join("testdata", "golden.gh5")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeGolden(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer output (%d bytes) differs from %s (%d bytes) at byte %d",
			len(got), golden, len(want), firstDiff(got, want))
	}

	f, err := Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.NumRecords("binomial", "inputs"); n != 2 {
		t.Fatalf("binomial/inputs has %d records, want 2", n)
	}
	in, err := f.Read("binomial", "inputs")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(in.Shape(), []int{6, 5}) {
		t.Fatalf("binomial/inputs shape %v, want [6 5]", in.Shape())
	}
	sp := specialValues()
	for i, v := range in.Data() {
		if math.Float64bits(v) != math.Float64bits(sp[i%len(sp)]) {
			t.Fatalf("binomial/inputs[%d] = %#x, want %#x", i, math.Float64bits(v), math.Float64bits(sp[i%len(sp)]))
		}
	}
	strided, err := f.Read("other", "strided")
	if err != nil {
		t.Fatal(err)
	}
	pat := patterned(12)
	wantStrided := []float64{pat[1], pat[5], pat[9], pat[3], pat[7], pat[11]}
	for i, v := range strided.Data() {
		if math.Float64bits(v) != math.Float64bits(wantStrided[i]) {
			t.Fatalf("other/strided[%d] = %v, want %v", i, v, wantStrided[i])
		}
	}
	if rt, err := f.Read("binomial", "runtime_ns"); err != nil || rt.Data()[0] != 1234.5 {
		t.Fatalf("binomial/runtime_ns = %v, %v", rt, err)
	}
	if e, err := f.ReadRecords("other", "empty"); err != nil || e[0].Len() != 0 {
		t.Fatalf("other/empty = %v, %v", e, err)
	}
}

// refRecord is the per-element reference encoding of one record: every
// field and every value appended on its own.
func refRecord(b []byte, group, name string, shape []int, data []float64) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, recordMagic)
	for _, s := range []string{group, name} {
		b = le.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = le.AppendUint32(b, uint32(len(shape)))
	for _, d := range shape {
		b = le.AppendUint64(b, uint64(d))
	}
	for _, v := range data {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestWriteMatchesReferenceEncoder: records whose values end just
// before, on and just after the 64 KiB write buffer, at offsets shifted
// by odd-length names, encode exactly as the reference does.
func TestWriteMatchesReferenceEncoder(t *testing.T) {
	shapes := [][]int{{0}, {1}, {8191}, {8192}, {8193}, {8192, 3}, {8193}, {1}, {8192}}
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	want := le.AppendUint32(le.AppendUint32(nil, fileMagic), fileVersion)
	for i, shape := range shapes {
		data := patterned(tensor.NumElements(shape))
		x, err := tensor.FromSlice(data, shape...)
		if err != nil {
			t.Fatal(err)
		}
		group, name := "g"+string(rune('a'+i)), "dataset-"+string(make([]byte, i))
		if err := w.Write(group, name, x); err != nil {
			t.Fatal(err)
		}
		want = refRecord(want, group, name, shape, data)
		if i%3 == 2 {
			if err := w.WriteScalar(group, "s", data[0]); err != nil {
				t.Fatal(err)
			}
			want = refRecord(want, group, "s", []int{1}, data[:1])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer output (%d bytes) differs from the reference (%d bytes) at byte %d",
			len(got), len(want), firstDiff(got, want))
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, shape := range shapes {
		recs, err := f.ReadRecords("g"+string(rune('a'+i)), "dataset-"+string(make([]byte, i)))
		if err != nil {
			t.Fatal(err)
		}
		data := patterned(tensor.NumElements(shape))
		for j, v := range recs[0].Data() {
			if math.Float64bits(v) != math.Float64bits(data[j]) {
				t.Fatalf("record %d value %d = %#x, want %#x", i, j, math.Float64bits(v), math.Float64bits(data[j]))
			}
		}
	}
}

// TestWriteAllocatesNothing: a contiguous [8192,3] record, three times
// the write buffer, is encoded without a single allocation.
func TestWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := Create(tmpPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	x, err := tensor.FromSlice(patterned(8192*3), 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.Write("binomial", "inputs", x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Write of an [8192,3] record made %v allocations, want 0", allocs)
	}
	if allocs = testing.AllocsPerRun(20, func() { w.WriteScalar("binomial", "runtime_ns", 1) }); allocs != 0 {
		t.Fatalf("WriteScalar made %v allocations, want 0", allocs)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// BenchmarkWriteRecordSet: the writer alone, appending one capture
// record set of the benchmark's binomial region ([8192,3] inputs,
// [8192,1] outputs, a runtime scalar) to the null device.
func BenchmarkWriteRecordSet(b *testing.B) {
	w, err := Create(os.DevNull)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	in, out := tensor.New(8192, 3), tensor.New(8192, 1)
	b.SetBytes(8 * 8192 * 4)
	for b.Loop() {
		if err := AppendSample(w, "binomial", in, out, 1); err != nil {
			b.Fatal(err)
		}
	}
}
