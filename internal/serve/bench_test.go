package serve

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	hpacml "repro"
)

// benchWidths is a mid-sized MLP surrogate: big enough that the model
// call dominates staging, the regime where coalescing pays.
var benchWidths = []int{16, 128, 128, 8}

// clients is the concurrent-caller count both benchmark arms serve.
const clients = 64

// BenchmarkCoalescedVsSerial is the acceptance benchmark: N concurrent
// single-invocation clients served through the micro-batching coalescer
// versus the same clients serialized through one Region.Execute behind a
// mutex — the embedded programming model's only correct alternative,
// since a Region is not safe for concurrent use, built here through the
// public API the way an application would. ns/op is per completed request; the coalesced number
// must be at least 2x better under concurrent load.
func BenchmarkCoalescedVsSerial(b *testing.B) {
	dir := b.TempDir()
	net := mlp(3, benchWidths...)
	path := dir + "/bench.gmod"
	if err := net.Save(path); err != nil {
		b.Fatal(err)
	}
	in, out := benchWidths[0], benchWidths[len(benchWidths)-1]
	inputs := make([][]float64, 64)
	for k := range inputs {
		inputs[k] = inputVec(k, in)
	}

	b.Run("serial-mutex", func(b *testing.B) {
		hpacml.ClearModelCache()
		x, y := make([]float64, in), make([]float64, out)
		region, err := hpacml.NewRegion("serial",
			hpacml.Directives(fmt.Sprintf(`
tensor functor(vin: [i, 0:FIN] = ([0:FIN]))
tensor functor(vout: [i, 0:FOUT] = ([0:FOUT]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model(%q)
`, path)),
			hpacml.BindInt("FIN", in), hpacml.BindInt("FOUT", out),
			hpacml.BindArray("x", x, in), hpacml.BindArray("y", y, out))
		if err != nil {
			b.Fatal(err)
		}
		defer region.Close()
		var mu sync.Mutex
		var k int
		b.SetParallelism(clients / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]float64, out)
			for pb.Next() {
				mu.Lock()
				k++
				copy(x, inputs[k%len(inputs)])
				if err := region.Execute(nil); err != nil {
					mu.Unlock()
					b.Error(err)
					return
				}
				copy(buf, y)
				mu.Unlock()
			}
		})
	})

	b.Run("coalesced", func(b *testing.B) {
		hpacml.ClearModelCache()
		workers := runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
		s, err := NewServer(Config{
			MaxBatch: 64,
			MaxDelay: 100 * time.Microsecond,
			QueueCap: 1024,
			Workers:  workers,
		}, ModelSpec{Name: "m", Path: path})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var k int64
		var mu sync.Mutex
		next := func() []float64 {
			mu.Lock()
			k++
			v := inputs[k%int64(len(inputs))]
			mu.Unlock()
			return v
		}
		b.SetParallelism(clients / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Infer("m", next()); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		snap := s.Snapshot()[0]
		if snap.Batches > 0 {
			b.ReportMetric(snap.MeanBatch, "mean-batch")
		}
	})
}

// BenchmarkServeFrame times the binary /v1/infer handler end to end
// without a network: one caller, a 256-row f64 frame, a small MLP, the
// default batching policy — so the request path (decode, range queue,
// replica engine on views, encode), not the model, is what it measures.
// It reports rows/s beside ns/op and allocs/op; the allocation count is
// what TestFrameAllocsGrowWithRanges bounds.
func BenchmarkServeFrame(b *testing.B) {
	hpacml.ClearModelCache()
	const rows, cols = 256, 6
	path := b.TempDir() + "/frame.gmod"
	if err := mlp(4, cols, 16, 2).Save(path); err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	d := newFrameDriver(b, NewHandler(s, WithLogger(quiet)), rows, cols)
	d.do(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.do(b)
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
}
