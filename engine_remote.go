package hpacml

import (
	"context"
	"fmt"
	"time"

	"repro/internal/directive"
	"repro/internal/serveclient"
	"repro/internal/tensor"
)

// RemoteEngine executes a region's inference against a running
// hpacml-serve instance over its HTTP API, through the typed pooled
// client (internal/serveclient), over the binary frame wire: one
// length-prefixed request per batch, raw float payloads. A region
// selects the engine by writing an http(s):// URI in its model()
// clause —
//
//	ml(infer) in(x) out(y) model("http://127.0.0.1:8080/binomial")
//
// — where the URI's last path segment is the server's registered model
// name and the rest is the server base URL. The annotation is the same
// one-line contract as the local case; only the reference changes,
// which is the SmartSim-style separation of the solver loop from where
// the model actually runs.
//
// The served API is flat vectors, so remote execution covers flat
// [rows, features] regions (the paper's MLP benchmarks); image/channel
// layouts are refused at warmup. A batch of rows travels as one
// request, and the caller's context deadline rides the wire: cancel the
// context and the HTTP request is torn down. A region whose model() is
// a URI falls back to its accurate path when the engine fails, so a
// dead server degrades the solve instead of failing it.
type RemoteEngine struct {
	client *serveclient.Client
	model  string

	resolved bool
	inDim    int
	outDim   int
}

// DefaultRemoteTimeout bounds each request of a remote engine
// end-to-end, independent of the caller's context (whichever expires
// first wins), so a hung server (accepted connection, no answer)
// surfaces as an engine error the fallback policy can act on instead of
// blocking Execute indefinitely.
const DefaultRemoteTimeout = 30 * time.Second

// NewRemoteEngine builds a remote engine from a model URI
// (http(s)://host[:port][/prefix...]/model-name).
func NewRemoteEngine(uri string) (*RemoteEngine, error) {
	base, name, err := directive.SplitRemoteModel(uri)
	if err != nil {
		return nil, err
	}
	client := serveclient.New(base,
		serveclient.WithWire(serveclient.WireBinary),
		serveclient.WithTimeout(DefaultRemoteTimeout))
	return &RemoteEngine{client: client, model: name}, nil
}

// Warmup resolves the model in the server's registry (recording its
// I/O widths) and validates the region's bridged input shape against
// it: remote execution serves flat [rows, features] regions only.
func (e *RemoteEngine) Warmup(ctx context.Context, inShape []int) error {
	if len(inShape) != 2 {
		return fmt.Errorf("hpacml: remote engine serves flat [rows, features] regions, got input shape %v", inShape)
	}
	if !e.resolved {
		info, err := e.client.Model(ctx, e.model)
		if err != nil {
			return fmt.Errorf("hpacml: remote model %q at %s: %w", e.model, e.client.Base(), err)
		}
		e.inDim, e.outDim = info.InDim, info.OutDim
		e.resolved = true
	}
	if inShape[1] != e.inDim {
		return fmt.Errorf("hpacml: remote model %q wants %d input features, region presents %d", e.model, e.inDim, inShape[1])
	}
	return nil
}

// OutputShape maps [rows, inDim] to [rows, outDim] using the registry
// dimensions resolved at warmup.
func (e *RemoteEngine) OutputShape(in []int) ([]int, error) {
	if !e.resolved {
		return nil, fmt.Errorf("hpacml: remote engine for model %q not warmed up", e.model)
	}
	if len(in) != 2 || in[1] != e.inDim {
		return nil, fmt.Errorf("hpacml: remote model %q wants [rows, %d] inputs, got %v", e.model, e.inDim, in)
	}
	return []int{in[0], e.outDim}, nil
}

// Infer ships the staged rows to the server as one flat [rows, inDim]
// matrix — a single request whether the region ran single or batched —
// and decodes the answers straight into out's storage: the round trip
// is two raw float slabs behind fixed headers.
func (e *RemoteEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	if in.Rank() != 2 || out.Rank() != 2 {
		return fmt.Errorf("hpacml: remote engine wants 2-D staging, got %v -> %v", in.Shape(), out.Shape())
	}
	rows, inF := in.Dim(0), in.Dim(1)
	outF := out.Dim(1)
	inData, outData := in.Contiguous().Data(), out.Data()

	data, gotCols, err := e.client.InferMatrix(ctx, e.model, rows, inF, inData, outData)
	if err != nil {
		return err
	}
	if gotCols != outF || len(data) != rows*outF {
		return fmt.Errorf("hpacml: remote model %q answered %d floats x %d features, want [%d, %d]",
			e.model, len(data), gotCols, rows, outF)
	}
	if len(data) > 0 && &data[0] != &outData[0] {
		copy(outData, data)
	}
	return nil
}

// Refresh drops the resolved registry dimensions so the next warmup
// re-queries the server (e.g. after the server swapped deployments).
func (e *RemoteEngine) Refresh() { e.resolved = false }

// Close releases the client's pooled connections.
func (e *RemoteEngine) Close() error {
	e.client.CloseIdleConnections()
	return nil
}
