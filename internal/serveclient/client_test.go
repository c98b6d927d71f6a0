package serveclient_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// stubServe implements just enough of the serve wire protocol to
// exercise the client: a 2->1 "double-sum" model, 429s on a trigger
// input, and the registry/stats listings.
func stubServe(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	infer := func(in []float64) ([]float64, int) {
		if len(in) != 2 {
			return nil, http.StatusBadRequest
		}
		if in[0] == -1 {
			return nil, http.StatusTooManyRequests
		}
		return []float64{2 * (in[0] + in[1])}, http.StatusOK
	}
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		var req serveapi.InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Model != "sum" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(serveapi.ErrorBody{Error: "unknown model"})
			return
		}
		out, code := infer(req.Input)
		if code != http.StatusOK {
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(serveapi.ErrorBody{Error: "refused"})
			return
		}
		json.NewEncoder(w).Encode(serveapi.InferResponse{Model: req.Model, Output: out})
	})
	mux.HandleFunc("/v1/capture", func(w http.ResponseWriter, r *http.Request) {
		var req serveapi.CaptureRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.DB != "d" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(serveapi.ErrorBody{Error: "unknown capture db"})
			return
		}
		json.NewEncoder(w).Encode(serveapi.CaptureResponse{DB: req.DB, Accepted: len(req.Records)})
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]serveapi.ModelInfo{{Name: "sum", InDim: 2, OutDim: 1}})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serveapi.StatsResponse{
			UptimeSec: 1,
			Models:    []serveapi.ModelSnapshot{{ModelInfo: serveapi.ModelInfo{Name: "sum"}, MeanBatch: 3.5}},
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestClientRoundTrips(t *testing.T) {
	ts := stubServe(t)
	c := serveclient.New(ts.URL + "/") // trailing slash tolerated
	ctx := context.Background()

	out, err := c.Infer(ctx, "sum", []float64{1, 2})
	if err != nil || len(out) != 1 || out[0] != 6 {
		t.Fatalf("Infer = %v, %v", out, err)
	}

	info, err := c.Model(ctx, "")
	if err != nil || info.Name != "sum" || info.InDim != 2 {
		t.Fatalf("Model(\"\") = %+v, %v", info, err)
	}
	if _, err := c.Model(ctx, "nope"); err == nil {
		t.Fatal("Model(nope) should fail")
	}

	snap, err := c.ModelStats(ctx, "sum")
	if err != nil || snap.MeanBatch != 3.5 {
		t.Fatalf("ModelStats = %+v, %v", snap, err)
	}

	recs := []serveapi.CaptureRecord{
		{Region: "r", InputShape: []int{1, 2}, Inputs: []float64{1, 2}, OutputShape: []int{1, 1}, Outputs: []float64{3}},
		{Region: "r", InputShape: []int{1, 2}, Inputs: []float64{4, 5}, OutputShape: []int{1, 1}, Outputs: []float64{9}},
	}
	if n, err := c.Capture(ctx, "d", recs); err != nil || n != 2 {
		t.Fatalf("Capture = %d, %v", n, err)
	}
	if n, err := c.Capture(ctx, "d", nil); err != nil || n != 0 {
		t.Fatalf("empty Capture = %d, %v", n, err)
	}
	if _, err := c.Capture(ctx, "ghost", recs); err == nil {
		t.Fatal("Capture(ghost) should fail")
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	ts := stubServe(t)
	c := serveclient.New(ts.URL)
	ctx := context.Background()

	// 429 → Rejected classification.
	_, err := c.Infer(ctx, "sum", []float64{-1, 0})
	if !serveclient.Rejected(err) {
		t.Fatalf("want rejection, got %v", err)
	}

	// 404 carries the server's message and code.
	_, err = c.Infer(ctx, "ghost", []float64{1, 2})
	var api *serveclient.APIError
	if !errors.As(err, &api) || api.Code != http.StatusNotFound {
		t.Fatalf("want 404 APIError, got %v", err)
	}
	if serveclient.Rejected(err) {
		t.Fatal("404 must not classify as rejection")
	}

	// Cancelled context surfaces as a transport error, not an APIError.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = c.Infer(cancelled, "sum", []float64{1, 2})
	if err == nil || errors.As(err, &api) {
		t.Fatalf("cancelled context: want transport error, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context should surface context.Canceled, got %v", err)
	}
}
