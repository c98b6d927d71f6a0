// Package h5 is the persistent-storage substrate standing in for HDF5 in
// the HPAC-ML runtime (the database() clause). It implements a hierarchical
// container format, .gh5: named groups holding named datasets of float64
// tensors, with crash-tolerant append — exactly the workflow data
// collection needs (one group per annotated region; datasets for inputs,
// outputs, and the region's execution time, appended once per region
// invocation).
//
// The format is log-structured: a fixed header followed by self-delimiting
// records. Appending never rewrites existing data; readers reconstruct the
// group/dataset hierarchy by scanning. Records belonging to the same
// dataset are concatenated along their first dimension on read, which
// yields the paper's layout: the outer dimension is the collection
// ensemble index, inner dimensions are the application's tensors.
package h5

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/tensor"
)

const (
	fileMagic   = 0x47483546 // "GH5F"
	fileVersion = 1
	recordMagic = 0x52454331 // "REC1"

	maxNameLen = 1 << 12
	maxRank    = 16
	// maxRecordElems bounds one record's element count (2 GiB of data),
	// on write and on read, so a forged shape can neither overflow the
	// count nor promise more than a record may hold.
	maxRecordElems = 1 << 28
	// recordChunk caps the elements read per chunk; a record's data
	// grows only by chunks that actually arrived, so a forged count costs
	// what the file really holds.
	recordChunk = 1 << 15
)

// Writer appends datasets to a .gh5 file. It is not safe for concurrent
// use; the HPAC-ML runtime serializes region invocations per database.
type Writer struct {
	f   *os.File
	buf *bufio.Writer
}

// Create truncates (or creates) path and writes a fresh header. The
// header is flushed immediately — not left in the write buffer — so a
// concurrent reader (a retrain snapshotting a database mid-ingest)
// that opens a freshly rotated shard sees a valid empty .gh5 file, not
// zero bytes.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("h5: create: %w", err)
	}
	w := &Writer{f: f, buf: bufio.NewWriterSize(f, 1<<16)}
	// A buffered write's error is sticky: the Flush reports it.
	le := binary.LittleEndian
	w.buf.Write(le.AppendUint32(le.AppendUint32(w.buf.AvailableBuffer(), fileMagic), fileVersion))
	if err := w.buf.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append opens path for appending, creating it with a header if absent.
// The existing content is validated up to its last complete record; a
// partial record left by a crash mid-append is truncated away first, so
// the new records remain readable after it.
func Append(path string) (*Writer, error) {
	w, _, err := AppendCount(path)
	return w, err
}

// AppendCount is Append, additionally reporting how many complete
// records the file already holds — what a sharded writer needs to
// resume rotation at the right point after a restart.
func AppendCount(path string) (*Writer, int, error) {
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && st.Size() == 0) {
		w, err := Create(path)
		return w, 0, err
	}
	if err != nil {
		return nil, 0, fmt.Errorf("h5: append: %w", err)
	}
	// Validate the header and find the end of the last complete record
	// before appending blindly.
	r, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("h5: append: %w", err)
	}
	cr := &countingReader{r: bufio.NewReaderSize(r, 1<<16)}
	magic, err := readU32(cr)
	if err == nil {
		var version uint32
		version, err = readU32(cr)
		if err == nil && (magic != fileMagic || version != fileVersion) {
			err = fmt.Errorf("h5: %s is not a version-%d .gh5 file", path, fileVersion)
		}
	}
	if err != nil {
		r.Close()
		return nil, 0, err
	}
	goodEnd := cr.n
	count := 0
	for {
		if err := skimRecord(cr); err != nil {
			if err == io.EOF || errors.Is(err, errTruncated) {
				break
			}
			// A real I/O failure or corruption must not truncate: only a
			// tail provably cut short by a crash may be dropped.
			r.Close()
			return nil, 0, fmt.Errorf("h5: append: %s: %w", path, err)
		}
		goodEnd = cr.n
		count++
	}
	r.Close()
	if goodEnd < st.Size() {
		if err := os.Truncate(path, goodEnd); err != nil {
			return nil, 0, fmt.Errorf("h5: append: dropping partial tail record: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("h5: append: %w", err)
	}
	return &Writer{f: f, buf: bufio.NewWriterSize(f, 1<<16)}, count, nil
}

// countingReader tracks how many bytes have been consumed, so Append can
// locate the end of the last complete record.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Write appends one dataset record under group/name. The record is
// encoded straight into the write buffer's free space, which is flushed
// only when full: no allocation and no call per element for a
// contiguous t.
func (w *Writer) Write(group, name string, t *tensor.Tensor) error {
	ct := t.Contiguous()
	rank := ct.Rank()
	if rank > maxRank {
		return fmt.Errorf("h5: rank %d exceeds maximum %d", rank, maxRank)
	}
	var dims [maxRank]int
	for i := range rank {
		dims[i] = ct.Dim(i)
	}
	return w.writeRecord(group, name, dims[:rank], ct.Data())
}

// WriteScalar appends a single value as a [1]-shaped dataset record.
// The value is encoded into the buffer with the header, so nothing
// escapes and the call allocates nothing.
func (w *Writer) WriteScalar(group, name string, v float64) error {
	dims := [1]int{1}
	b, err := w.header(group, name, dims[:], 1, 8)
	if err != nil {
		return err
	}
	_, err = w.buf.Write(binary.LittleEndian.AppendUint64(b, math.Float64bits(v)))
	return err
}

// writeRecord writes one record: its header, then the values as one
// slab.
func (w *Writer) writeRecord(group, name string, shape []int, data []float64) error {
	b, err := w.header(group, name, shape, len(data), 0)
	if err != nil {
		return err
	}
	if _, err := w.buf.Write(b); err != nil {
		return err
	}
	return tensor.WriteSlab(w.buf, data)
}

// header validates a record of elems values and encodes its marker,
// names and shape into the write buffer's free space, flushing first
// if that space cannot hold them and the extra bytes the caller appends
// before writing the returned slice.
func (w *Writer) header(group, name string, shape []int, elems, extra int) ([]byte, error) {
	if group == "" || name == "" {
		return nil, fmt.Errorf("h5: empty group or dataset name")
	}
	if len(group) > maxNameLen || len(name) > maxNameLen {
		return nil, fmt.Errorf("h5: group/dataset name too long")
	}
	if elems > maxRecordElems {
		return nil, fmt.Errorf("h5: %d elements exceed the record maximum %d", elems, maxRecordElems)
	}
	// The header is at most ~8 KiB (two names of maxNameLen and maxRank
	// dims), so it always fits an emptied 64 KiB buffer.
	if w.buf.Available() < 16+len(group)+len(name)+8*len(shape)+extra {
		if err := w.buf.Flush(); err != nil {
			return nil, err
		}
	}
	le := binary.LittleEndian
	b := le.AppendUint32(w.buf.AvailableBuffer(), recordMagic)
	b = le.AppendUint32(b, uint32(len(group)))
	b = append(b, group...)
	b = le.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = le.AppendUint32(b, uint32(len(shape)))
	for _, d := range shape {
		b = le.AppendUint64(b, uint64(d))
	}
	return b, nil
}

// Flush forces buffered records to the OS.
func (w *Writer) Flush() error { return w.buf.Flush() }

// Close flushes and closes the file.
func (w *Writer) Close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// record is one dataset append as found in the file.
type record struct {
	group, name string
	shape       []int
	data        []float64
}

// File is a fully scanned .gh5 container.
type File struct {
	byGroup map[string]map[string][]*record
}

// errTruncated marks a record cut off by the end of the file — the shape
// a crash mid-append leaves behind. Readers treat it as a clean stop
// (every complete record before it is recovered); corruption inside the
// file (a bad record marker, implausible sizes) is still a hard error.
var errTruncated = errors.New("h5: truncated tail record")

// Open scans path and returns the reconstructed hierarchy. A file whose
// final record was cut short by a crash mid-append is not an error:
// scanning stops at the last complete record, which is the crash
// tolerance the log-structured format exists to provide.
func Open(path string) (*File, error) {
	out := &File{byGroup: make(map[string]map[string][]*record)}
	if err := out.scan(path); err != nil {
		return nil, err
	}
	return out, nil
}

// scan reads every complete record of one .gh5 file into the
// hierarchy, appending to whatever earlier scans loaded — the merge
// step OpenShards uses to present a shard set as one database.
func (f *File) scan(path string) error {
	src, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("h5: open: %w", err)
	}
	defer src.Close()
	r := bufio.NewReaderSize(src, 1<<16)
	magic, err := readU32(r)
	if err != nil {
		// A zero-byte (or header-truncated) file is what a writer that
		// just created the shard — or crashed mid-header — leaves behind.
		// Treat it as an empty shard, not corruption, so snapshot reads
		// taken while a ShardWriter is appending never fail on a file
		// whose header hasn't reached the OS yet. Real corruption (a full
		// header with the wrong magic) still errors below.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		return fmt.Errorf("h5: %s: missing header: %w", path, err)
	}
	if magic != fileMagic {
		return fmt.Errorf("h5: %s is not a version-%d .gh5 file", path, fileVersion)
	}
	version, err := readU32(r)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		return fmt.Errorf("h5: %s: missing version: %w", path, err)
	}
	if version != fileVersion {
		return fmt.Errorf("h5: %s is not a version-%d .gh5 file", path, fileVersion)
	}
	var buf []byte // the scan's one value buffer, grown by decodeRecord
	for {
		rec, err := decodeRecord(r, &buf)
		if err == io.EOF || errors.Is(err, errTruncated) {
			break
		}
		if err != nil {
			return fmt.Errorf("h5: %s: %w", path, err)
		}
		ds := f.byGroup[rec.group]
		if ds == nil {
			ds = make(map[string][]*record)
			f.byGroup[rec.group] = ds
		}
		ds[rec.name] = append(ds[rec.name], rec)
	}
	return nil
}

// skimRecord walks one record without materializing its payload — the
// cheap scan Append uses to find the end of the last complete record.
func skimRecord(r io.Reader) error {
	_, err := decodeRecord(r, nil)
	return err
}

// decodeRecord reads one record, its values through *buf; a nil buf
// skims them.
func decodeRecord(r io.Reader, buf *[]byte) (*record, error) {
	magic, err := readU32(r)
	if err != nil {
		// Distinguish the three boundary cases: a clean end of file, a
		// marker cut mid-write by a crash (recoverable truncation), and a
		// genuine read failure (must not be mistaken for either — Append
		// would truncate good records after it).
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, recordErr(err)
		}
		return nil, fmt.Errorf("record marker read: %w", err)
	}
	if magic != recordMagic {
		return nil, fmt.Errorf("corrupt record marker %#x", magic)
	}
	group, err := readString(r)
	if err != nil {
		return nil, recordErr(err)
	}
	name, err := readString(r)
	if err != nil {
		return nil, recordErr(err)
	}
	rank, err := readU32(r)
	if err != nil {
		return nil, recordErr(err)
	}
	if rank > maxRank {
		return nil, fmt.Errorf("implausible rank %d", rank)
	}
	shape := make([]int, rank)
	count := 1
	for i := range shape {
		v, err := readI64(r)
		if err != nil {
			return nil, recordErr(err)
		}
		if v < 0 || v > maxRecordElems {
			return nil, fmt.Errorf("implausible dimension %d", v)
		}
		if v > 0 && count > maxRecordElems/int(v) {
			return nil, fmt.Errorf("implausible record shape: dimension %d (%d) takes it past %d elements", i, v, maxRecordElems)
		}
		shape[i] = int(v)
		count *= shape[i]
	}
	if buf == nil {
		if _, err := io.CopyN(io.Discard, r, int64(count)*8); err != nil {
			return nil, recordErr(err)
		}
		return nil, nil
	}
	if need := 8 * min(count, recordChunk); len(*buf) < need {
		*buf = make([]byte, need)
	}
	data, err := tensor.ReadSlab(nil, r, count, *buf)
	if err != nil {
		return nil, recordErr(err)
	}
	return &record{group: group, name: name, shape: shape, data: data}, nil
}

// recordErr classifies a mid-record read failure: running out of file is
// a truncated tail (recoverable); anything else stays a hard error.
func recordErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", errTruncated, err)
	}
	return fmt.Errorf("broken record: %w", err)
}

// Groups lists group names in sorted order.
func (f *File) Groups() []string {
	out := make([]string, 0, len(f.byGroup))
	for g := range f.byGroup {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Datasets lists the dataset names in a group, sorted.
func (f *File) Datasets(group string) []string {
	ds := f.byGroup[group]
	out := make([]string, 0, len(ds))
	for n := range ds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumRecords returns how many times group/name was appended.
func (f *File) NumRecords(group, name string) int {
	return len(f.byGroup[group][name])
}

// Read concatenates every record of group/name along the first dimension,
// yielding the ensemble layout: [total rows, inner dims...]. Rank-0 and
// rank-1 records are treated as rows of a [n, ...] matrix.
func (f *File) Read(group, name string) (*tensor.Tensor, error) {
	recs := f.byGroup[group][name]
	if len(recs) == 0 {
		return nil, fmt.Errorf("h5: no dataset %q in group %q", name, group)
	}
	inner := recs[0].shape
	if len(inner) == 0 {
		inner = []int{1}
	}
	rows := 0
	for _, rec := range recs {
		s := rec.shape
		if len(s) == 0 {
			s = []int{1}
		}
		if len(s) != len(inner) {
			return nil, fmt.Errorf("h5: dataset %q/%q has mixed ranks", group, name)
		}
		for i := 1; i < len(s); i++ {
			if s[i] != inner[i] {
				return nil, fmt.Errorf("h5: dataset %q/%q has mixed inner shapes %v vs %v", group, name, s, inner)
			}
		}
		rows += s[0]
	}
	outShape := append([]int{rows}, inner[1:]...)
	out := tensor.New(outShape...)
	d := out.Data()
	at := 0
	for _, rec := range recs {
		copy(d[at:at+len(rec.data)], rec.data)
		at += len(rec.data)
	}
	return out, nil
}

// ReadRecords returns each append of group/name as its own tensor.
func (f *File) ReadRecords(group, name string) ([]*tensor.Tensor, error) {
	recs := f.byGroup[group][name]
	if len(recs) == 0 {
		return nil, fmt.Errorf("h5: no dataset %q in group %q", name, group)
	}
	out := make([]*tensor.Tensor, len(recs))
	for i, rec := range recs {
		t, err := tensor.FromSlice(rec.data, rec.shape...)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
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
	if n > maxNameLen {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
