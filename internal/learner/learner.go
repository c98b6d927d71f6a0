// Package learner closes the HPAC-ML loop: it turns the serve stack's
// capture ingest into a continuous-learning controller. A policy per
// model watches the captured-row count (and optionally age), and
// when the trigger fires the controller snapshots the sharded capture
// database (set-atomically, through the server's ingest registry),
// splits it into a train/held-out pair, warm-starts a candidate from
// the published weights and retrains it with the internal/nn training
// path, then shadow-gates the candidate against the currently
// published model on the held-out captures. Only a passing candidate
// is published: the parent weights are archived per generation, the
// candidate atomically renamed over the live files, and the serve
// registry's checksum hot-reload swaps the replica pools at their next
// batch boundary. Every attempt — published or rejected — appends a
// lineage entry persisted in a .lineage.json sidecar and served
// through /v1/models; POST /v1/models/{name}/rollback restores the
// parent generation from its archive.
//
// The package sits below internal/serve in the import graph (it knows
// h5, nn, serveapi, and telemetry only); the server hands it snapshot
// and reload hooks, and the HTTP layer forwards rollback and
// annotation calls. One background goroutine drives every policy, so
// retraining is rate-limited by construction — at most one retrain in
// flight per controller, with Config.Interval as the pacing floor.
package learner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// Sentinel errors, mapped onto HTTP statuses by the serve handler.
var (
	// ErrUnknownModel means no policy manages the named model.
	ErrUnknownModel = errors.New("learner: model not managed")
	// ErrNoParent means the live generation has no archived parent to
	// roll back to (it is the seed, or its archive is gone).
	ErrNoParent = errors.New("learner: no parent generation to roll back to")
)

// Policy is one model's continuous-learning contract.
type Policy struct {
	// Model is the serve-registry name the policy manages.
	Model string
	// Paths are the member weight files, primary first — the same list
	// the registry serves, because publish works by rewriting these
	// files and letting the checksum reload pick them up. Ensembles are
	// gated and published all-or-nothing.
	Paths []string
	// Group names the capture group (region name) inside the snapshot.
	// Empty auto-detects a single-group database.
	Group string

	// RetrainEvery triggers a retrain once this many new captured rows
	// (training samples) have arrived since the last one (0 disables
	// the count trigger). A capture record of n rows counts n.
	RetrainEvery int
	// MaxAge triggers a retrain once any pending row has waited this
	// long, regardless of count (0 disables the age trigger).
	MaxAge time.Duration
	// MinRecords is the floor: no retrain until the snapshot holds at
	// least this many captured rows (training samples). Default 8.
	MinRecords int

	// HoldoutFrac is the trailing fraction of the shuffled snapshot
	// held out for the shadow gate (never trained on). Default 0.25.
	HoldoutFrac float64
	// Rtol is the gate's additive relative-error slack: a candidate
	// publishes iff its holdout error is finite and at most the
	// published model's error + Rtol. Default 0.05.
	Rtol float64
	// Train configures the candidate's nn.Fit run (warm-started from
	// the published weights). Stop is owned by the controller — it is
	// overwritten to cancel training promptly on Close. Zero Epochs
	// defaults to 20, zero BatchSize to 16.
	Train nn.TrainConfig

	// Snapshot returns a set-atomic read snapshot of the model's
	// capture database (the server's SnapshotCaptureDB).
	Snapshot func() (*h5.File, error)
	// Reload asks the registry to re-checksum and hot-swap the model's
	// files now (the server's ReloadModel).
	Reload func() error
}

// Config is the controller-wide policy.
type Config struct {
	// Interval paces the watch loop (and thereby rate-limits retrains:
	// at most one trigger check per model per tick). Default 5s;
	// negative disables the background loop entirely — CheckNow drives
	// the controller instead (tests, batch jobs).
	Interval time.Duration
	// Logger receives retrain/publish/rollback events. Default
	// slog.Default().
	Logger *slog.Logger
	// Metrics is the registry the learner families register on — pass
	// the server's so /metrics carries them. Nil gets a private one.
	Metrics *telemetry.Registry
}

// managed is one policy's runtime state.
type managed struct {
	pol Policy

	// mu guards the lineage state, the weight files during
	// publish/rollback, and the counters below. Training runs outside
	// the lock; publish re-checks the live generation under it, so a
	// rollback racing a retrain wins and the stale candidate is
	// rejected as superseded.
	mu    sync.Mutex
	state lineageState
	// trained is how many snapshot rows the live weights have consumed;
	// pending (the trigger input) is the snapshot row count minus this.
	trained      int
	pending      int
	pendingSince time.Time

	retrains, published, rejected, errored, rollbacks uint64
	lastVerdict                                       string
	lastCandErr, lastPubErr                           float64

	// trainFn builds one candidate member (warm-start + Fit by
	// default). Test seam, mirroring serve's batchHook.
	trainFn func(member int, path string, train *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error)

	mPublished, mRejected, mError, mRollback *telemetry.Counter
	mGen, mCandErr, mPubErr                  *telemetry.Gauge
}

// Controller runs the closed loop for a set of policies.
type Controller struct {
	cfg    Config
	models map[string]*managed
	order  []string
	log    *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the policies, loads (or seeds) each model's lineage
// sidecar, registers the learner metric families, and starts the watch
// loop (unless Config.Interval is negative).
func New(cfg Config, pols ...Policy) (*Controller, error) {
	if len(pols) == 0 {
		return nil, fmt.Errorf("learner: no policies")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	retrainsVec := reg.CounterVec("hpacml_retrains_total",
		"Retrain attempts by model and result (published, rejected, or error).", "model", "result")
	rollbacksVec := reg.CounterVec("hpacml_rollbacks_total",
		"Operator rollbacks to a parent generation, by model.", "model")
	genVec := reg.GaugeVec("hpacml_model_generation",
		"Lineage generation whose weights currently serve, by model.", "model")
	gateVec := reg.GaugeVec("hpacml_gate_rel_error",
		"Shadow-gate relative error of the last gated candidate and the then-published model on held-out captures.", "model", "which")

	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:    cfg,
		models: make(map[string]*managed, len(pols)),
		log:    cfg.Logger,
		ctx:    ctx,
		cancel: cancel,
	}
	for _, pol := range pols {
		if pol.Model == "" || len(pol.Paths) == 0 || pol.Snapshot == nil || pol.Reload == nil {
			cancel()
			return nil, fmt.Errorf("learner: policy for %q needs Model, Paths, Snapshot, and Reload", pol.Model)
		}
		if _, dup := c.models[pol.Model]; dup {
			cancel()
			return nil, fmt.Errorf("learner: model %q managed twice", pol.Model)
		}
		if pol.MinRecords <= 0 {
			pol.MinRecords = 8
		}
		if pol.HoldoutFrac <= 0 || pol.HoldoutFrac >= 1 {
			pol.HoldoutFrac = 0.25
		}
		if pol.Rtol <= 0 {
			pol.Rtol = 0.05
		}
		if pol.Train.Epochs <= 0 {
			pol.Train.Epochs = 20
		}
		if pol.Train.BatchSize <= 0 {
			pol.Train.BatchSize = 16
		}
		m := &managed{
			pol:        pol,
			mPublished: retrainsVec.With(pol.Model, "published"),
			mRejected:  retrainsVec.With(pol.Model, "rejected"),
			mError:     retrainsVec.With(pol.Model, "error"),
			mRollback:  rollbacksVec.With(pol.Model),
			mGen:       genVec.With(pol.Model),
			mCandErr:   gateVec.With(pol.Model, "candidate"),
			mPubErr:    gateVec.With(pol.Model, "published"),
		}
		if err := m.loadOrSeed(); err != nil {
			cancel()
			return nil, err
		}
		m.mGen.Set(float64(m.state.LiveGen))
		c.models[pol.Model] = m
		c.order = append(c.order, pol.Model)
	}
	if cfg.Interval > 0 {
		c.wg.Add(1)
		go c.run()
	}
	return c, nil
}

// loadOrSeed restores the sidecar lineage or seeds generation 0 from
// the files currently on disk.
func (m *managed) loadOrSeed() error {
	path := lineagePath(m.pol.Paths[0])
	st, err := loadLineage(path)
	if err != nil {
		return err
	}
	if st != nil {
		m.state = *st
		m.trained = m.state.trainedRows()
		return nil
	}
	sum, err := serveapi.ModelChecksum(m.pol.Paths)
	if err != nil {
		return fmt.Errorf("learner: model %q: %w", m.pol.Model, err)
	}
	m.state = lineageState{
		Model:   m.pol.Model,
		LiveGen: 0,
		Entries: []serveapi.LineageEntry{{
			Gen:      0,
			Time:     time.Now().UTC(),
			Verdict:  serveapi.VerdictSeed,
			Checksum: sum,
		}},
	}
	return m.state.persist(path)
}

// run is the watch loop: one sweep per tick, every policy in
// registration order, at most one retrain in flight at a time.
func (c *Controller) run() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// CheckNow runs one synchronous sweep of every policy — the manual
// drive for tests and batch retraining jobs.
func (c *Controller) CheckNow() {
	c.sweep()
}

func (c *Controller) sweep() {
	for _, name := range c.order {
		if c.ctx.Err() != nil {
			return
		}
		c.maybeRetrain(c.models[name])
	}
}

// Close cancels any in-flight training promptly (the Fit Stop hook
// polls per minibatch) and waits for the watch loop to exit. A
// candidate interrupted by Close is discarded: it is never gated and
// never published.
func (c *Controller) Close() {
	c.cancel()
	c.wg.Wait()
}

// maybeRetrain snapshots the capture database, updates the pending
// accounting, and retrains when a trigger fires.
func (c *Controller) maybeRetrain(m *managed) {
	ds, err := c.snapshotDataset(m)
	if err != nil {
		c.log.Warn("learner: snapshot failed", "model", m.pol.Model, "err", err)
		return
	}
	if ds == nil {
		return
	}
	rows := ds.Len()
	m.mu.Lock()
	pending := rows - m.trained
	if pending < 0 {
		pending = 0
	}
	m.pending = pending
	switch {
	case pending == 0:
		m.pendingSince = time.Time{}
	case m.pendingSince.IsZero():
		m.pendingSince = time.Now()
	}
	trigger := (m.pol.RetrainEvery > 0 && pending >= m.pol.RetrainEvery) ||
		(m.pol.MaxAge > 0 && pending > 0 && time.Since(m.pendingSince) >= m.pol.MaxAge)
	if rows < m.pol.MinRecords {
		trigger = false
	}
	startGen := m.state.LiveGen
	m.mu.Unlock()
	if !trigger {
		return
	}
	c.retrain(m, ds, startGen)
}

// snapshotDataset takes the policy's capture snapshot and pairs it
// into a training dataset, truncating to complete input/output record
// pairs (a snapshot racing ingest may be one record ahead on inputs).
// A database with no records yet returns (nil, nil).
func (c *Controller) snapshotDataset(m *managed) (*nn.Dataset, error) {
	f, err := m.pol.Snapshot()
	if err != nil {
		return nil, err
	}
	group := m.pol.Group
	if group == "" {
		groups := f.Groups()
		switch len(groups) {
		case 0:
			return nil, nil
		case 1:
			group = groups[0]
		default:
			return nil, fmt.Errorf("learner: capture db holds %d groups %v; set Policy.Group", len(groups), groups)
		}
	}
	n := f.NumRecords(group, "inputs")
	if out := f.NumRecords(group, "outputs"); out < n {
		n = out
	}
	if n == 0 {
		return nil, nil
	}
	inRecs, err := f.ReadRecords(group, "inputs")
	if err != nil {
		return nil, err
	}
	outRecs, err := f.ReadRecords(group, "outputs")
	if err != nil {
		return nil, err
	}
	x, err := stackRecords(inRecs[:n])
	if err != nil {
		return nil, err
	}
	y, err := stackRecords(outRecs[:n])
	if err != nil {
		return nil, err
	}
	return nn.NewDataset(x, y)
}

// retrain runs one full candidate cycle: split, warm-start + train
// every member, shadow-gate against the published weights, and publish
// or reject — appending the lineage entry either way. Training
// interrupted by Close returns silently: no entry, no publish.
func (c *Controller) retrain(m *managed, ds *nn.Dataset, startGen uint64) {
	rows := ds.Len()
	shuffled, err := ds.Shuffle(m.pol.Train.Seed + int64(startGen)*7919)
	if err != nil {
		c.finish(m, rejection(m, 0, 0, "shuffle failed: "+err.Error()), rows, true)
		return
	}
	train, holdout, err := shuffled.Split(1 - m.pol.HoldoutFrac)
	if err != nil {
		c.finish(m, rejection(m, 0, 0, "holdout split failed: "+err.Error()), rows, true)
		return
	}
	c.log.Info("learner: retraining", "model", m.pol.Model,
		"rows", rows, "train", train.Len(), "holdout", holdout.Len())

	// Baseline: the published weights, loaded fresh from disk, on the
	// held-out captures.
	base := make([]*nn.Network, len(m.pol.Paths))
	for i, p := range m.pol.Paths {
		if base[i], err = nn.Load(p); err != nil {
			c.finish(m, rejection(m, train.Len(), holdout.Len(), "loading published weights: "+err.Error()), rows, true)
			return
		}
	}
	pubErr, err := relErr(base, holdout)
	if err != nil {
		c.finish(m, rejection(m, train.Len(), holdout.Len(), "evaluating published weights: "+err.Error()), rows, true)
		return
	}

	// Candidates: one per member, warm-started, trained outside the
	// lock. Distinct seeds keep ensemble members diverse.
	cands := make([]*nn.Network, len(m.pol.Paths))
	for i, p := range m.pol.Paths {
		cfg := m.pol.Train
		cfg.Seed += int64(startGen)*7919 + int64(i)*9973
		cfg.Stop = func() bool { return c.ctx.Err() != nil }
		cands[i], err = m.train(i, p, train, cfg)
		if errors.Is(err, nn.ErrTrainingStopped) || c.ctx.Err() != nil {
			c.log.Info("learner: retrain aborted by shutdown", "model", m.pol.Model)
			return
		}
		if err != nil {
			c.finish(m, rejection(m, train.Len(), holdout.Len(), fmt.Sprintf("training member %d: %v", i, err)), rows, true)
			return
		}
	}
	candErr, err := relErr(cands, holdout)
	if err != nil {
		c.finish(m, rejection(m, train.Len(), holdout.Len(), "evaluating candidate: "+err.Error()), rows, true)
		return
	}

	entry := serveapi.LineageEntry{
		Time:           time.Now().UTC(),
		ParentGen:      startGen,
		TrainRecords:   train.Len(),
		HoldoutRecords: holdout.Len(),
		CandidateErr:   sanitize(candErr),
		PublishedErr:   sanitize(pubErr),
	}
	m.mCandErr.Set(sanitize(candErr))
	m.mPubErr.Set(sanitize(pubErr))
	switch {
	case math.IsNaN(candErr):
		entry.Verdict = serveapi.VerdictRejected
		entry.Reason = "candidate NaN-poisoned on held-out captures"
	case candErr > pubErr+m.pol.Rtol:
		entry.Verdict = serveapi.VerdictRejected
		entry.Reason = fmt.Sprintf("gate failed: candidate rel err %.6g > published %.6g + rtol %.3g",
			candErr, pubErr, m.pol.Rtol)
	default:
		entry.Verdict = serveapi.VerdictPublished
	}
	if entry.Verdict == serveapi.VerdictRejected {
		c.finish(m, entry, rows, false)
		return
	}
	c.publish(m, entry, cands, rows, startGen)
}

// train builds one candidate member: the trainFn seam, or warm-start
// from the published weights plus Fit.
func (m *managed) train(member int, path string, train *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error) {
	if m.trainFn != nil {
		return m.trainFn(member, path, train, cfg)
	}
	net, err := nn.Load(path)
	if err != nil {
		return nil, err
	}
	if _, err := net.Fit(train, nil, cfg); err != nil {
		return nil, err
	}
	return net, nil
}

// rejection builds a rejected lineage entry for an infrastructure
// failure (as opposed to a gate verdict).
func rejection(m *managed, trainRows, holdoutRows int, reason string) serveapi.LineageEntry {
	m.mu.Lock()
	parent := m.state.LiveGen
	m.mu.Unlock()
	return serveapi.LineageEntry{
		Time:           time.Now().UTC(),
		Verdict:        serveapi.VerdictRejected,
		Reason:         reason,
		ParentGen:      parent,
		TrainRecords:   trainRows,
		HoldoutRecords: holdoutRows,
	}
}

// finish records a non-published retrain outcome: assign the next
// generation number, append + persist the entry, bump counters. infra
// distinguishes infrastructure errors from gate rejections in the
// metrics.
func (c *Controller) finish(m *managed, entry serveapi.LineageEntry, rows int, infra bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry.Gen = m.state.nextGen()
	if parent := m.state.entryByGen(entry.ParentGen); parent != nil {
		entry.ParentChecksum = parent.Checksum
	}
	m.state.Entries = append(m.state.Entries, entry)
	m.retrains++
	if infra {
		m.errored++
		m.mError.Inc()
	} else {
		m.rejected++
		m.mRejected.Inc()
	}
	m.lastVerdict = entry.Verdict
	m.lastCandErr, m.lastPubErr = entry.CandidateErr, entry.PublishedErr
	// A rejected candidate still consumed the snapshot: the records it
	// trained on don't re-trigger forever. The next trigger needs fresh
	// captures.
	m.trained = rows
	m.pending = 0
	m.pendingSince = time.Time{}
	if err := m.state.persist(lineagePath(m.pol.Paths[0])); err != nil {
		c.log.Error("learner: persisting lineage", "model", m.pol.Model, "err", err)
	}
	c.log.Info("learner: candidate rejected", "model", m.pol.Model,
		"gen", entry.Gen, "reason", entry.Reason)
}

// publish archives the parent weights, renames the candidate members
// into place atomically, asks the registry to hot-reload, and records
// the published lineage entry. A rollback that raced the training run
// wins: the stale candidate is rejected as superseded.
func (c *Controller) publish(m *managed, entry serveapi.LineageEntry, cands []*nn.Network, rows int, startGen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state.LiveGen != startGen {
		entry.Verdict = serveapi.VerdictRejected
		entry.Reason = fmt.Sprintf("superseded: generation moved %d -> %d during training", startGen, m.state.LiveGen)
		entry.Gen = m.state.nextGen()
		m.state.Entries = append(m.state.Entries, entry)
		m.retrains++
		m.rejected++
		m.mRejected.Inc()
		m.lastVerdict = entry.Verdict
		if err := m.state.persist(lineagePath(m.pol.Paths[0])); err != nil {
			c.log.Error("learner: persisting lineage", "model", m.pol.Model, "err", err)
		}
		return
	}
	entry.Gen = m.state.nextGen()
	if parent := m.state.entryByGen(startGen); parent != nil {
		entry.ParentChecksum = parent.Checksum
	}

	fail := func(stage string, err error) {
		entry.Verdict = serveapi.VerdictRejected
		entry.Reason = stage + ": " + err.Error()
		m.state.Entries = append(m.state.Entries, entry)
		m.retrains++
		m.errored++
		m.mError.Inc()
		m.lastVerdict = entry.Verdict
		if perr := m.state.persist(lineagePath(m.pol.Paths[0])); perr != nil {
			c.log.Error("learner: persisting lineage", "model", m.pol.Model, "err", perr)
		}
		c.log.Error("learner: publish failed", "model", m.pol.Model, "gen", entry.Gen, "stage", stage, "err", err)
	}

	// Archive the parent generation (restore source for rollback), then
	// stage every member next to its target and rename the whole set —
	// the registry's checksum poll sees either all old or all new bytes
	// per file, and validates the set before swapping replicas.
	for _, p := range m.pol.Paths {
		arch := archivePath(p, startGen)
		if _, err := os.Stat(arch); errors.Is(err, os.ErrNotExist) {
			if err := copyFile(arch, p); err != nil {
				fail("archiving parent", err)
				return
			}
		}
	}
	staged := make([]string, len(m.pol.Paths))
	for i, p := range m.pol.Paths {
		staged[i] = p + ".candidate"
		if err := cands[i].Save(staged[i]); err != nil {
			fail("staging candidate", err)
			return
		}
	}
	for i, p := range m.pol.Paths {
		if err := os.Rename(staged[i], p); err != nil {
			fail("installing candidate", err)
			return
		}
	}
	sum, err := serveapi.ModelChecksum(m.pol.Paths)
	if err == nil {
		entry.Checksum = sum
	}
	if err := m.pol.Reload(); err != nil {
		// The registry refused the new bytes: put the parent back so
		// disk and replicas agree again.
		for _, p := range m.pol.Paths {
			if rerr := copyFile(p, archivePath(p, startGen)); rerr != nil {
				c.log.Error("learner: restoring parent after refused reload", "model", m.pol.Model, "path", p, "err", rerr)
			}
		}
		fail("registry reload refused candidate", err)
		return
	}

	entry.Verdict = serveapi.VerdictPublished
	m.state.Entries = append(m.state.Entries, entry)
	m.state.LiveGen = entry.Gen
	m.retrains++
	m.published++
	m.mPublished.Inc()
	m.mGen.Set(float64(entry.Gen))
	m.lastVerdict = entry.Verdict
	m.lastCandErr, m.lastPubErr = entry.CandidateErr, entry.PublishedErr
	m.trained = rows
	m.pending = 0
	m.pendingSince = time.Time{}
	if err := m.state.persist(lineagePath(m.pol.Paths[0])); err != nil {
		c.log.Error("learner: persisting lineage", "model", m.pol.Model, "err", err)
	}
	c.log.Info("learner: published new generation", "model", m.pol.Model,
		"gen", entry.Gen, "parent", startGen,
		"candidate_err", entry.CandidateErr, "published_err", entry.PublishedErr)
}

// Rollback restores the live generation's parent from its archive and
// hot-reloads it, appending a rollback lineage entry. The response
// carries both the rollback entry's generation and the restored one.
func (c *Controller) Rollback(model string) (serveapi.RollbackResponse, error) {
	m := c.models[model]
	if m == nil {
		return serveapi.RollbackResponse{}, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.state.entryByGen(m.state.LiveGen)
	if cur == nil || cur.Verdict == serveapi.VerdictSeed {
		return serveapi.RollbackResponse{}, fmt.Errorf("%w: model %q serves generation %d", ErrNoParent, model, m.state.LiveGen)
	}
	target := cur.ParentGen
	for _, p := range m.pol.Paths {
		if _, err := os.Stat(archivePath(p, target)); err != nil {
			return serveapi.RollbackResponse{}, fmt.Errorf("%w: archive for generation %d missing (%s)", ErrNoParent, target, archivePath(p, target))
		}
	}
	// Archive the weights being rolled away first, so a roll-forward
	// stays possible, then restore the whole parent set.
	for _, p := range m.pol.Paths {
		arch := archivePath(p, m.state.LiveGen)
		if _, err := os.Stat(arch); errors.Is(err, os.ErrNotExist) {
			if err := copyFile(arch, p); err != nil {
				return serveapi.RollbackResponse{}, fmt.Errorf("learner: archiving generation %d: %w", m.state.LiveGen, err)
			}
		}
	}
	for _, p := range m.pol.Paths {
		if err := copyFile(p, archivePath(p, target)); err != nil {
			return serveapi.RollbackResponse{}, fmt.Errorf("learner: restoring generation %d: %w", target, err)
		}
	}
	if err := m.pol.Reload(); err != nil {
		return serveapi.RollbackResponse{}, fmt.Errorf("learner: reload after rollback: %w", err)
	}
	sum, _ := serveapi.ModelChecksum(m.pol.Paths)
	entry := serveapi.LineageEntry{
		Gen:       m.state.nextGen(),
		Time:      time.Now().UTC(),
		Verdict:   serveapi.VerdictRollback,
		Reason:    fmt.Sprintf("rolled back generation %d to parent %d", m.state.LiveGen, target),
		ParentGen: target,
		Checksum:  sum,
	}
	m.state.Entries = append(m.state.Entries, entry)
	m.state.LiveGen = target
	m.rollbacks++
	m.mRollback.Inc()
	m.mGen.Set(float64(target))
	if err := m.state.persist(lineagePath(m.pol.Paths[0])); err != nil {
		c.log.Error("learner: persisting lineage", "model", model, "err", err)
	}
	c.log.Info("learner: rolled back", "model", model, "restored_gen", target, "entry_gen", entry.Gen)
	return serveapi.RollbackResponse{
		Model:       model,
		Generation:  entry.Gen,
		RestoredGen: target,
		Checksum:    sum,
	}, nil
}

// Annotate decorates registry ModelInfos with the learner view: the
// live generation and the full lineage (the extended /v1/models).
func (c *Controller) Annotate(infos []serveapi.ModelInfo) {
	for i := range infos {
		m := c.models[infos[i].Name]
		if m == nil {
			continue
		}
		m.mu.Lock()
		infos[i].LearnerGeneration = m.state.LiveGen
		infos[i].Lineage = append([]serveapi.LineageEntry(nil), m.state.Entries...)
		m.mu.Unlock()
	}
}

// Snapshot renders the per-model learner stats (the /v1/stats
// Learners section) in policy registration order.
func (c *Controller) Snapshot() []serveapi.LearnerSnapshot {
	out := make([]serveapi.LearnerSnapshot, 0, len(c.order))
	for _, name := range c.order {
		m := c.models[name]
		m.mu.Lock()
		out = append(out, serveapi.LearnerSnapshot{
			Model:            name,
			Generation:       m.state.LiveGen,
			Retrains:         m.retrains,
			Published:        m.published,
			Rejected:         m.rejected,
			Errors:           m.errored,
			Rollbacks:        m.rollbacks,
			PendingRecords:   m.pending,
			LastVerdict:      m.lastVerdict,
			LastCandidateErr: m.lastCandErr,
			LastPublishedErr: m.lastPubErr,
		})
		m.mu.Unlock()
	}
	return out
}

// sanitize maps non-finite gate errors onto -1: JSON cannot carry NaN,
// and the lineage reason names the poisoning anyway.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
