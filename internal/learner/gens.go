package learner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/nn"
	"repro/internal/serveapi"
)

// The generation layout: generation g of a model lives in the
// directory <primary>.gens/<g %04d>, which holds every member under its
// base name plus the .quant and .guard sidecars that belong to that
// generation, and is never written once complete. <primary>.gens/live
// is a relative symlink naming the served directory, and every served
// path — each member, and each sidecar present when the model was
// adopted — is a relative symlink through it, e.g.
// m.gmod -> m.gmod.gens/live/m.gmod. Regions, the registry and the
// learner's own baseline load keep opening the same paths; one rename
// of live switches the whole set, so no reader ever sees members of two
// generations at rest. The lineage stays the commit record: live is
// what serves, LiveGen what should, and New puts live back when a crash
// left them apart.

// genDir is generation gen's directory.
func (m *managed) genDir(gen uint64) string {
	return filepath.Join(m.gens, fmt.Sprintf("%04d", gen))
}

// openGens brings the layout in line with the lineage, redoing whatever
// a crash interrupted; every step is idempotent. live is pointed at
// LiveGen's directory. Served files that are not yet links through live
// (all of them, the first time a model is managed; a member or sidecar
// added since) are hard-linked into that directory and then replaced by
// their links. If live named another directory (a crash between the
// swap and the settle), the registry reloads. Every directory the
// lineage never published is removed.
func (m *managed) openGens() error {
	dir := m.genDir(m.state.LiveGen)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cur, err := os.Readlink(filepath.Join(m.gens, "live"))
	if cur != filepath.Base(dir) {
		if err := m.pointLive(m.state.LiveGen); err != nil {
			return err
		}
	}
	for _, f := range serveapi.ModelFiles(m.pol.Paths) {
		if t, _ := os.Readlink(f); t != m.servedLink(f) {
			if err := linkInto(dir, f); err != nil {
				return fmt.Errorf("adopting %s: %w", f, err)
			}
			if err := swapLink(f, m.servedLink(f)); err != nil {
				return err
			}
		}
	}
	if err == nil && cur != filepath.Base(dir) { // live named another generation
		if err := m.pol.Reload(); err != nil {
			return fmt.Errorf("reloading live generation %d: %w", m.state.LiveGen, err)
		}
	}
	ents, err := os.ReadDir(m.gens)
	for _, e := range ents {
		gen, perr := strconv.ParseUint(e.Name(), 10, 64)
		if e.Name() != "live" && (perr != nil || !m.state.published(gen)) {
			err = errors.Join(err, os.RemoveAll(filepath.Join(m.gens, e.Name())))
		}
	}
	return err
}

// linkInto hard-links the file f resolves to into dir under f's base
// name, replacing a different file of that name.
func linkInto(dir, f string) error {
	src, err := filepath.EvalSymlinks(f)
	if err != nil {
		return err
	}
	dst := filepath.Join(dir, filepath.Base(f))
	if a, err := os.Stat(dst); err == nil {
		if b, err := os.Stat(src); err == nil && os.SameFile(a, b) {
			return nil
		}
		_ = os.Remove(dst) // if it stays, Link reports it
	}
	return os.Link(src, dst)
}

// servedLink is the symlink target a served file f carries: its base
// name under live, relative to f's directory.
func (m *managed) servedLink(f string) string {
	from, _ := filepath.Abs(filepath.Dir(f))
	to, _ := filepath.Abs(filepath.Join(m.gens, "live", filepath.Base(f)))
	rel, _ := filepath.Rel(from, to)
	return rel
}

// pointLive swaps live to generation gen's directory with one rename.
func (m *managed) pointLive(gen uint64) error {
	return swapLink(filepath.Join(m.gens, "live"), filepath.Base(m.genDir(gen)))
}

// swapLink replaces path by a symlink to target: a fresh link beside it,
// renamed over it.
func swapLink(path, target string) error {
	_ = os.Remove(path + ".tmp") // a crash's leftover; if it stays, Symlink reports it
	if err := os.Symlink(target, path+".tmp"); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// writeGen writes a candidate set as generation gen: each member under
// its base name in a .tmp directory, then one rename into place. The
// directory holds only these files; the parent's sidecars are fitted
// for other weights and stay behind.
func (m *managed) writeGen(gen uint64, cands []*nn.Network) error {
	tmp := m.genDir(gen) + ".tmp"
	_ = os.RemoveAll(tmp) // a crash's leftover; if it stays, Mkdir reports it
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return err
	}
	for i, p := range m.pol.Paths {
		if err := cands[i].Save(filepath.Join(tmp, filepath.Base(p))); err != nil {
			return fmt.Errorf("staging %s: %w", p, err)
		}
		m.step(fmt.Sprintf("stage %d", i))
	}
	if err := os.Rename(tmp, m.genDir(gen)); err != nil {
		return err
	}
	m.step("rename")
	return nil
}
