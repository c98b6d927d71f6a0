package learner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/serveapi"
)

// Lineage is the provenance half of the closed loop: every retrain
// attempt — published or not — and every rollback appends one
// serveapi.LineageEntry, and the whole history is persisted next to
// the primary weight file as a .lineage.json sidecar. The sidecar is
// the durable truth; /v1/models serves the same entries, so the wire
// view and the on-disk record can never drift.
//
// Generation numbering is monotonic across attempts: a rejected
// candidate consumes a generation number too, so the record says what
// was tried, not just what won. The generation whose weights are live
// (LiveGen) moves only on publish (forward) and rollback (back to the
// parent); it is what the hpacml_model_generation gauge and
// /v1/stats report.

// lineageState is the sidecar schema.
type lineageState struct {
	Model string `json:"model"`
	// LiveGen is the generation whose weights currently serve.
	LiveGen uint64                  `json:"live_gen"`
	Entries []serveapi.LineageEntry `json:"entries"`
}

// lineagePath is where a model's sidecar lives: next to the primary
// weight file.
func lineagePath(primary string) string { return primary + ".lineage.json" }

// archivePath is where generation gen's weights of one member file are
// kept once superseded — the restore source for rollback.
func archivePath(member string, gen uint64) string {
	return fmt.Sprintf("%s.gen%04d", member, gen)
}

// loadLineage reads an existing sidecar; a missing file returns nil
// (fresh model, the caller seeds generation 0). A sidecar the learner
// could not continue from is refused (see validate).
func loadLineage(path string) (*lineageState, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("learner: %s: %w", path, err)
	}
	var st lineageState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("learner: %s: %w", path, err)
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("learner: %s: %w", path, err)
	}
	return &st, nil
}

// validate checks the invariants the learner relies on: at least one
// entry, strictly increasing generations, a last generation that
// nextGen can step past without wrapping to a used number, and an
// entry for the live generation.
func (st *lineageState) validate() error {
	if len(st.Entries) == 0 {
		return errors.New("lineage has no entries")
	}
	for i := 1; i < len(st.Entries); i++ {
		if prev, gen := st.Entries[i-1].Gen, st.Entries[i].Gen; gen <= prev {
			return fmt.Errorf("lineage generation %d follows %d", gen, prev)
		}
	}
	if last := st.Entries[len(st.Entries)-1].Gen; last == math.MaxUint64 {
		return fmt.Errorf("lineage generation %d leaves no next generation", last)
	}
	if st.entryByGen(st.LiveGen) == nil {
		return fmt.Errorf("live generation %d has no lineage entry", st.LiveGen)
	}
	return nil
}

// persist writes the sidecar atomically (temp + rename), so a crash
// mid-write never leaves a torn lineage behind.
func (st *lineageState) persist(path string) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("learner: %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("learner: %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("learner: %s: %w", path, err)
	}
	return nil
}

// nextGen is the generation number the next entry will carry.
func (st *lineageState) nextGen() uint64 {
	if len(st.Entries) == 0 {
		return 0
	}
	return st.Entries[len(st.Entries)-1].Gen + 1
}

// entryByGen finds the entry that created generation gen.
func (st *lineageState) entryByGen(gen uint64) *serveapi.LineageEntry {
	for i := range st.Entries {
		if st.Entries[i].Gen == gen {
			return &st.Entries[i]
		}
	}
	return nil
}

// lastRetrain is the newest retrain attempt's entry (published or
// rejected), or nil before the first: the source of the last verdict
// and gate errors that /v1/stats and the gate gauge report.
func (st *lineageState) lastRetrain() *serveapi.LineageEntry {
	for i := len(st.Entries) - 1; i >= 0; i-- {
		if v := st.Entries[i].Verdict; v == serveapi.VerdictPublished || v == serveapi.VerdictRejected {
			return &st.Entries[i]
		}
	}
	return nil
}

// trainedRows is how many captured rows the retrain attempts have
// consumed. Every attempt consumes its whole snapshot, whatever its
// verdict, and records it as its train plus held-out rows, so this is
// the newest attempt's total — the same count for a running learner
// and a restarted one, which must not re-trigger on old records.
func (st *lineageState) trainedRows() int {
	if e := st.lastRetrain(); e != nil {
		return e.TrainRecords + e.HoldoutRecords
	}
	return 0
}

// copyFile copies src to dst (overwriting): it writes generation
// archives and stages archived members for an install.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
