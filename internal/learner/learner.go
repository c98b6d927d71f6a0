// Package learner closes the HPAC-ML loop: it turns the serve stack's
// capture ingest into a continuous-learning controller. A policy per
// model watches the captured-row count (and optionally age), and
// when the trigger fires the controller snapshots the sharded capture
// database (set-atomically, through the server's ingest registry),
// splits it into a train/held-out pair, warm-starts a candidate from
// the published weights and retrains it with the internal/nn training
// path, then shadow-gates the candidate against the currently
// published model on the held-out captures. Only a passing candidate
// is published. Each generation is one immutable directory,
// <primary>.gens/<gen>, and every served path is a symlink through
// <primary>.gens/live (see gens.go). Publish writes the candidate set
// into a new directory; publish and rollback then change the served
// generation through one install step: one rename swaps live, and the
// serve registry hot-reloads (its replica pools swap at their next
// batch boundary); a refused reload swaps live back. Every outcome —
// published, rejected, or rolled back — then settles once: one lineage
// entry, persisted in a .lineage.json sidecar and served through
// /v1/models, and one bump of the telemetry counter that owns the
// outcome. POST /v1/models/{name}/rollback swaps live back to the
// parent generation's directory.
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
	"path/filepath"
	"slices"
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
	// ErrNoParent means the live generation has no parent directory to
	// roll back to (it is the seed, or its parent predates the
	// generation directories).
	ErrNoParent = errors.New("learner: no parent generation to roll back to")
)

// Policy is one model's continuous-learning contract: when to retrain
// and how to train. The shadow gate that judges each candidate
// (gate.go) takes no settings.
type Policy struct {
	// Model is the serve-registry name the policy manages.
	Model string
	// Paths are the member weight files, primary first — the same list
	// the registry serves. New turns each path, and each .quant or
	// .guard beside it, into a symlink through <Paths[0]>.gens/live, so
	// one rename switches the whole set and the checksum reload picks it
	// up. Members need distinct base names, on the primary's file
	// system. Ensembles are gated and published all-or-nothing.
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
	pol  Policy
	gens string // <primary>.gens, the generation directories

	// mu guards the lineage state, the generation directories,
	// and the pending accounting. Training runs outside the lock;
	// publish re-checks the live generation under it, so a rollback
	// racing a retrain wins and the stale candidate settles as
	// superseded.
	mu    sync.Mutex
	state lineageState
	// pending (the trigger input) is the snapshot row count minus the
	// rows the retrain attempts have consumed (lineageState.trainedRows).
	pending      int
	pendingSince time.Time

	// trainFn builds one candidate member (warm-start + Fit by
	// default). Test seam, mirroring serve's batchHook.
	trainFn func(member int, path string, train *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error)
	// step runs after each step of publish and rollback, by name (a
	// no-op by default). Test seam: a crash there must leave one
	// generation serving.
	step func(name string)

	// The children of hpacml_retrains_total and hpacml_rollbacks_total
	// are the learner's only counts: settle bumps the one that owns each
	// outcome, and Snapshot reads them back.
	mPublished, mRejected, mError, mRollback *telemetry.Counter
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
		for i, p := range pol.Paths {
			if slices.ContainsFunc(pol.Paths[:i], func(q string) bool { return filepath.Base(q) == filepath.Base(p) }) {
				cancel()
				return nil, fmt.Errorf("learner: model %q has two members named %s", pol.Model, filepath.Base(p))
			}
		}
		if pol.MinRecords <= 0 {
			pol.MinRecords = 8
		}
		if pol.Train.Epochs <= 0 {
			pol.Train.Epochs = 20
		}
		if pol.Train.BatchSize <= 0 {
			pol.Train.BatchSize = 16
		}
		m := &managed{
			pol:        pol,
			gens:       pol.Paths[0] + ".gens",
			step:       func(string) {},
			mPublished: retrainsVec.With(pol.Model, "published"),
			mRejected:  retrainsVec.With(pol.Model, "rejected"),
			mError:     retrainsVec.With(pol.Model, "error"),
			mRollback:  rollbacksVec.With(pol.Model),
		}
		if err := m.loadOrSeed(); err != nil {
			cancel()
			return nil, err
		}
		if err := m.openGens(); err != nil {
			cancel()
			return nil, fmt.Errorf("learner: model %q: %w", pol.Model, err)
		}
		c.models[pol.Model] = m
		c.order = append(c.order, pol.Model)
	}
	// The gauges read the lineage, the record every outcome settles in.
	reg.GaugeFunc("hpacml_model_generation",
		"Lineage generation whose weights currently serve, by model.", []string{"model"},
		func(emit telemetry.Emit) {
			c.eachLineage(func(name string, st *lineageState) { emit(float64(st.LiveGen), name) })
		})
	reg.GaugeFunc("hpacml_gate_rel_error",
		"Shadow-gate relative error of the newest retrain attempt's candidate and the then-published model on held-out captures (0 when the attempt failed before the gate).",
		[]string{"model", "which"},
		func(emit telemetry.Emit) {
			c.eachLineage(func(name string, st *lineageState) {
				var last serveapi.LineageEntry
				if e := st.lastRetrain(); e != nil {
					last = *e
				}
				emit(last.CandidateErr, name, "candidate")
				emit(last.PublishedErr, name, "published")
			})
		})
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
	pending := rows - m.state.trainedRows()
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
// or reject — settling the attempt either way. Training interrupted by
// Close returns silently: no entry, no publish.
func (c *Controller) retrain(m *managed, ds *nn.Dataset, startGen uint64) {
	// Every attempt consumes its whole snapshot, so the entry's train
	// and held-out counts always sum to the snapshot's rows.
	entry := serveapi.LineageEntry{ParentGen: startGen, TrainRecords: ds.Len()}
	fail := func(reason string) {
		entry.Verdict, entry.Reason = serveapi.VerdictRejected, reason
		m.mu.Lock()
		defer m.mu.Unlock()
		c.settle(m, entry, m.mError)
	}
	shuffled, err := ds.Shuffle(m.pol.Train.Seed + int64(startGen)*7919)
	if err != nil {
		fail("shuffle failed: " + err.Error())
		return
	}
	train, holdout, err := shuffled.Split(1 - holdoutFrac)
	if err != nil {
		fail("holdout split failed: " + err.Error())
		return
	}
	entry.TrainRecords, entry.HoldoutRecords = train.Len(), holdout.Len()
	c.log.Info("learner: retraining", "model", m.pol.Model,
		"rows", ds.Len(), "train", train.Len(), "holdout", holdout.Len())

	// Baseline: the published weights, loaded fresh from disk, on the
	// held-out captures.
	base := make([]*nn.Network, len(m.pol.Paths))
	for i, p := range m.pol.Paths {
		if base[i], err = nn.Load(p); err != nil {
			fail("loading published weights: " + err.Error())
			return
		}
	}
	pubErr, err := relErr(base, holdout)
	if err != nil {
		fail("evaluating published weights: " + err.Error())
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
			fail(fmt.Sprintf("training member %d: %v", i, err))
			return
		}
	}
	candErr, err := relErr(cands, holdout)
	if err != nil {
		fail("evaluating candidate: " + err.Error())
		return
	}

	entry.CandidateErr, entry.PublishedErr = sanitize(candErr), sanitize(pubErr)
	entry.Verdict = serveapi.VerdictRejected
	switch {
	case math.IsNaN(candErr):
		entry.Reason = "candidate NaN-poisoned on held-out captures"
	case candErr > pubErr:
		entry.Reason = fmt.Sprintf("gate failed: candidate rel err %.6g > published %.6g", candErr, pubErr)
	default:
		c.publish(m, entry, cands)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c.settle(m, entry, m.mRejected)
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

// publish installs a gated candidate set and settles the attempt; the
// entry arrives rejected and turns published only once the install
// completes. The set is written into a new generation directory named
// by the entry's generation. A rollback that raced the training run
// wins: the stale candidate settles as superseded and is never written.
func (c *Controller) publish(m *managed, entry serveapi.LineageEntry, cands []*nn.Network) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if live := m.state.LiveGen; live != entry.ParentGen {
		entry.Reason = fmt.Sprintf("superseded: generation moved %d -> %d during training", entry.ParentGen, live)
		c.settle(m, entry, m.mRejected)
		return
	}
	gen := m.state.nextGen()
	err := m.writeGen(gen, cands)
	if err == nil {
		entry.Checksum, err = m.install(gen)
	}
	if err != nil {
		entry.Reason = err.Error()
		c.settle(m, entry, m.mError)
		return
	}
	entry.Verdict = serveapi.VerdictPublished
	c.settle(m, entry, m.mPublished)
}

// Rollback swaps the live generation's parent directory back in and
// settles a rollback lineage entry; it writes no weight file. The
// response carries both the rollback entry's generation and the
// restored one. A refused reload leaves the live generation serving,
// on disk as in the registry.
func (c *Controller) Rollback(model string) (serveapi.RollbackResponse, error) {
	m := c.models[model]
	if m == nil {
		return serveapi.RollbackResponse{}, fmt.Errorf("%w: %q", ErrUnknownModel, model)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	live := m.state.LiveGen
	cur := m.state.entryByGen(live)
	if cur == nil || cur.Verdict == serveapi.VerdictSeed {
		return serveapi.RollbackResponse{}, fmt.Errorf("%w: model %q serves generation %d", ErrNoParent, model, live)
	}
	target := cur.ParentGen
	if _, err := os.Stat(m.genDir(target)); err != nil {
		return serveapi.RollbackResponse{}, fmt.Errorf("%w: generation %d has no directory (%v)", ErrNoParent, target, err)
	}
	sum, err := m.install(target)
	if err != nil {
		return serveapi.RollbackResponse{}, fmt.Errorf("learner: rolling back to generation %d: %w", target, err)
	}
	entry := c.settle(m, serveapi.LineageEntry{
		Verdict:   serveapi.VerdictRollback,
		Reason:    fmt.Sprintf("rolled back generation %d to parent %d", live, target),
		ParentGen: target,
		Checksum:  sum,
	}, m.mRollback)
	return serveapi.RollbackResponse{
		Model:       model,
		Generation:  entry.Gen,
		RestoredGen: target,
		Checksum:    sum,
	}, nil
}

// install makes generation gen's directory the served one, with m.mu
// held: one rename swaps live to it, and the registry reloads. If the
// registry refuses, live swaps back to the live generation. It returns
// the checksum of the set gen serves.
func (m *managed) install(gen uint64) (string, error) {
	if err := m.pointLive(gen); err != nil {
		return "", err
	}
	m.step("swap")
	sum, err := serveapi.ModelChecksum(m.pol.Paths)
	if err == nil {
		if err = m.pol.Reload(); err != nil {
			err = fmt.Errorf("registry refused the reload: %w", err)
		}
	}
	if err != nil {
		if rerr := m.pointLive(m.state.LiveGen); rerr != nil {
			err = fmt.Errorf("%w; restoring generation %d: %v", err, m.state.LiveGen, rerr)
		}
		return sum, err
	}
	m.step("reload")
	return sum, nil
}

// settle records one outcome, with m.mu held: it numbers the entry and
// links its parent's checksum, moves the live generation (forward on
// publish, back to the parent on rollback), appends and persists the
// entry, bumps the counter that owns the outcome, and marks the
// snapshot consumed — every retrain attempt consumes it, which is the
// rule trainedRows reads back from the lineage after a restart.
func (c *Controller) settle(m *managed, entry serveapi.LineageEntry, outcome *telemetry.Counter) serveapi.LineageEntry {
	entry.Gen = m.state.nextGen()
	entry.Time = time.Now().UTC()
	if parent := m.state.entryByGen(entry.ParentGen); parent != nil {
		entry.ParentChecksum = parent.Checksum
	}
	switch entry.Verdict {
	case serveapi.VerdictRollback:
		m.state.LiveGen = entry.ParentGen
	case serveapi.VerdictPublished:
		m.state.LiveGen = entry.Gen
		fallthrough
	default:
		m.pending, m.pendingSince = 0, time.Time{}
	}
	m.state.Entries = append(m.state.Entries, entry)
	outcome.Inc()
	m.step("settle")
	if err := m.state.persist(lineagePath(m.pol.Paths[0])); err != nil {
		c.log.Error("learner: persisting lineage", "model", m.pol.Model, "err", err)
	}
	level := slog.LevelInfo
	if outcome == m.mError {
		level = slog.LevelError
	}
	c.log.Log(c.ctx, level, "learner: "+entry.Verdict, "model", m.pol.Model,
		"gen", entry.Gen, "parent", entry.ParentGen, "reason", entry.Reason,
		"candidate_err", entry.CandidateErr, "published_err", entry.PublishedErr)
	return entry
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
// Learners section) in policy registration order: counts from the
// outcome counters, the last verdict and gate errors from the newest
// retrain entry in the lineage.
func (c *Controller) Snapshot() []serveapi.LearnerSnapshot {
	out := make([]serveapi.LearnerSnapshot, 0, len(c.order))
	for _, name := range c.order {
		m := c.models[name]
		m.mu.Lock()
		s := serveapi.LearnerSnapshot{
			Model:          name,
			Generation:     m.state.LiveGen,
			Published:      m.mPublished.Value(),
			Rejected:       m.mRejected.Value(),
			Errors:         m.mError.Value(),
			Rollbacks:      m.mRollback.Value(),
			PendingRecords: m.pending,
		}
		if e := m.state.lastRetrain(); e != nil {
			s.LastVerdict, s.LastCandidateErr, s.LastPublishedErr = e.Verdict, e.CandidateErr, e.PublishedErr
		}
		m.mu.Unlock()
		s.Retrains = s.Published + s.Rejected + s.Errors
		out = append(out, s)
	}
	return out
}

// eachLineage visits every model's lineage under its lock, in policy
// registration order.
func (c *Controller) eachLineage(visit func(name string, st *lineageState)) {
	for _, name := range c.order {
		m := c.models[name]
		m.mu.Lock()
		visit(name, &m.state)
		m.mu.Unlock()
	}
}

// sanitize maps non-finite gate errors onto -1: JSON cannot carry NaN,
// and the lineage reason names the poisoning anyway.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
