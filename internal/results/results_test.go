package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// records returns one fully populated Record per tool. Every field is
// non-zero, so omitempty cannot hide a field that fails to round-trip.
func records() []*Record {
	return []*Record{
		{Tool: "hpacml-eval", Benchmark: "binomial", Model: "models/binomial.gmod", Eval: &Eval{
			Speedup: 12.5, Error: 0.0125, Metric: "rmse", Params: 4481,
			LatencySec: 0.75, ToTensorSec: 0.01, InferenceSec: 0.5, FromTensorSec: 0.02, BaselineError: 0.25,
			Fallbacks: 1, RemoteInference: 2, TrustedRows: 3, UncertainRows: 4, OutOfDomainRows: 5,
			CaptureDrops: 6, CaptureFlushes: 7, RemoteCaptures: 8,
		}},
		{Tool: "hpacml-collect", Benchmark: "bonds", Model: "none", Collect: &Collect{
			Runs: 6, DB: "data/bonds.gh5", Records: 6, Sampled: 5, Shards: 2,
			Dropped: 1, Flushes: 3, FlushErrors: 4, WriteErrors: 5, RemoteRecords: 9,
		}},
	}
}

// checkPopulated fails for any zero non-pointer field reachable from v
// through non-nil pointers.
func checkPopulated(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			checkPopulated(t, v.Elem(), path)
		}
		return
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type.Kind() == reflect.Pointer {
				checkPopulated(t, v.Field(i), path+"."+f.Name)
			} else if v.Field(i).IsZero() {
				t.Errorf("fixture leaves %s.%s zero", path, f.Name)
			}
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, want := range records() {
		checkPopulated(t, reflect.ValueOf(want), want.Tool)

		var buf bytes.Buffer
		if err := want.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", want.Tool, err)
		}
		path := filepath.Join(dir, want.Tool+".json")
		if err := want.WriteFile(path); err != nil {
			t.Fatalf("%s: WriteFile: %v", want.Tool, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, buf.Bytes()) {
			t.Errorf("%s: WriteFile and WriteJSON disagree:\n%s\n%s", want.Tool, file, buf.Bytes())
		}
		var got Record
		if err := json.Unmarshal(file, &got); err != nil {
			t.Fatalf("%s: decode: %v", want.Tool, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", want.Tool, got, *want)
		}
	}
}

func TestWriteFileCreateError(t *testing.T) {
	r := &Record{Tool: "hpacml-eval"}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "missing", "out.json")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
