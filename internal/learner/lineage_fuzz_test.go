package learner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLineage writes b as a sidecar in a fresh directory and returns
// its path.
func writeLineage(t testing.TB, b []byte) string {
	path := filepath.Join(t.TempDir(), "m.gmod.lineage.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadLineageRefuses: a sidecar the learner could not continue from
// is refused with an error naming the file, instead of loading a state
// with no live entry or one whose next generation reuses a number.
func TestLoadLineageRefuses(t *testing.T) {
	for _, tc := range []struct{ name, json string }{
		{"empty object", `{}`},
		{"null", `null`},
		{"no entries", `{"model":"m","live_gen":0,"entries":[]}`},
		{"generations out of order", `{"live_gen":2,"entries":[{"gen":0},{"gen":2},{"gen":1}]}`},
		{"repeated generation", `{"live_gen":0,"entries":[{"gen":0},{"gen":0}]}`},
		{"live generation missing", `{"live_gen":3,"entries":[{"gen":0},{"gen":1}]}`},
		{"last generation wraps", `{"live_gen":0,"entries":[{"gen":0},{"gen":18446744073709551615}]}`},
	} {
		path := writeLineage(t, []byte(tc.json))
		st, err := loadLineage(path)
		if err == nil {
			t.Fatalf("%s: loaded %+v, want an error", tc.name, st)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, path)
		}
	}
	path := writeLineage(t, []byte(`{"model":"m","live_gen":1,"entries":[{"gen":0,"verdict":"seed"},{"gen":1,"verdict":"published","parent_gen":0},{"gen":4,"verdict":"rejected","parent_gen":1}]}`))
	st, err := loadLineage(path)
	if err != nil {
		t.Fatalf("valid sidecar refused: %v", err)
	}
	if st.LiveGen != 1 || st.nextGen() != 5 {
		t.Fatalf("loaded live %d next %d, want 1 and 5", st.LiveGen, st.nextGen())
	}
}

// FuzzLoadLineage: loadLineage never panics, and a state it accepts
// keeps the learner's invariants and is a fixed point of persist and
// reload.
func FuzzLoadLineage(f *testing.F) {
	f.Add([]byte(`{"model":"m","live_gen":1,"entries":[{"gen":0,"time":"2024-05-01T10:00:00Z","verdict":"seed","checksum":"ab"},{"gen":1,"verdict":"published","parent_gen":0,"train_records":90,"holdout_records":10,"candidate_err":0.01,"published_err":0.02}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"live_gen":0,"entries":[{"gen":0},{"gen":18446744073709551615}]}`))
	f.Add([]byte(`{"live_gen":2,"entries":[{"gen":0},{"gen":2},{"gen":1}]}`))
	f.Add([]byte(`{"live_gen":7,"entries":[{"gen":0,"time":"2024-05-01T10:00:00+02:00"}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := loadLineage(writeLineage(t, b))
		if err != nil {
			return
		}
		if len(st.Entries) == 0 {
			t.Fatal("accepted a lineage with no entries")
		}
		for i := 1; i < len(st.Entries); i++ {
			if st.Entries[i].Gen <= st.Entries[i-1].Gen {
				t.Fatalf("accepted generation %d after %d", st.Entries[i].Gen, st.Entries[i-1].Gen)
			}
		}
		if next := st.nextGen(); next <= st.Entries[len(st.Entries)-1].Gen {
			t.Fatalf("accepted a lineage whose next generation %d wraps", next)
		}
		if st.entryByGen(st.LiveGen) == nil {
			t.Fatalf("accepted live generation %d with no entry", st.LiveGen)
		}
		dir := t.TempDir()
		first, second := filepath.Join(dir, "a"), filepath.Join(dir, "b")
		if err := st.persist(first); err != nil {
			t.Fatalf("persisting an accepted lineage: %v", err)
		}
		again, err := loadLineage(first)
		if err != nil {
			t.Fatalf("reloading a persisted lineage: %v", err)
		}
		if err := again.persist(second); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(first)
		c, _ := os.ReadFile(second)
		if !bytes.Equal(a, c) {
			t.Fatalf("persist is not a fixed point:\n%s\n%s", a, c)
		}
		if fmt.Sprint(again.Entries) != fmt.Sprint(st.Entries) || again.LiveGen != st.LiveGen || again.Model != st.Model {
			t.Fatalf("round trip changed the state: %+v -> %+v", st, again)
		}
	})
}
