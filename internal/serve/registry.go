package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
)

// ModelSpec registers one named surrogate: a .gmod file served as a flat
// vector function of In input features to Out output features. Leave
// In/Out zero to infer both from the model file (possible whenever the
// network opens with a dense layer, which all the repo's MLP surrogates
// do).
type ModelSpec struct {
	Name string
	Path string
	// Ensemble lists additional member model files. When non-empty each
	// replica serves the deep ensemble {Path, Ensemble...} through an
	// EnsembleEngine: the response is the member-mean prediction, and
	// the per-row predictive variance is available to trust gates. All
	// members must share the primary's I/O widths.
	Ensemble []string
	In       int
	Out      int
	// F32 serves the model through the single-precision inference path:
	// each replica's LocalEngine is built WithFloat32Inference, converts
	// the weights to float32 once at load and runs batches in single
	// precision. Ensembles ignore it, and a model the f32 compiler
	// cannot handle stays float64 — ModelInfo.Precision says which path
	// serves, ModelInfo.PrecisionReason why it is not the asked one, and
	// a downgrade is logged once per load.
	F32 bool
	// I8 serves the model through the quantized int8 path: each
	// replica's LocalEngine is built WithInt8Inference, auto-loads the
	// ".quant" calibration sidecar beside the model file (written by
	// hpacml-quant) and compiles the int8 program. A missing, corrupt,
	// or gate-failed sidecar keeps the wider path (reported and logged
	// like F32's), and ensembles ignore it. When both F32 and I8 are set
	// the engine prefers int8 where the sidecar allows it.
	I8 bool
}

// ModelInfo is the registry view of a hosted model (the /v1/models
// payload), defined in the shared wire schema.
type ModelInfo = serveapi.ModelInfo

// model is one registry entry: the shared bounded queue, the replica
// pool draining it, the serving stats, and the hot-reload state.
type model struct {
	name    string
	path    string
	members []string // every served model file: path first, then the ensemble
	in, out int
	asked   string // the precision the spec requested: "int8", "f32" or "f64"

	// queue carries row ranges of caller-owned slabs; waiting counts the
	// rows in it, which is what QueueCap bounds.
	queue   chan rowRange
	waiting atomic.Int64

	replicas []*replica
	stats    *modelStats

	// gen counts accepted reloads; replicas compare it against their own
	// generation at each batch boundary and re-resolve their engine on
	// mismatch, picking up the network checkReload published to the
	// shared cache.
	gen   atomic.Uint64
	sumMu sync.Mutex
	sum   string // ModelInfo.Checksum
	// loadedAt is when the served weights were (re)loaded — provenance
	// for /v1/models, guarded by sumMu like the checksum it travels with.
	loadedAt time.Time
	// precision is the compute path the replicas actually run, as the
	// first replica to load generation precGen found it, and reason why
	// it is not the asked one. Guarded by sumMu.
	precision string
	reason    string
	precGen   uint64
}

// replicaEngine is what a replica needs of its engine: the Engine calls
// plus the hot-reload hook both local backends export.
type replicaEngine interface {
	hpacml.Engine
	Refresh()
}

// replica is one worker's single-threaded execution context: an engine
// (a LocalEngine, or an EnsembleEngine for a member set — engine
// scratch is single-threaded, so replicas never share one), the phase
// accounting a Region would have kept for it, and the [MaxBatch, in] /
// [MaxBatch, out] staging slabs that stack short ranges into one batch.
type replica struct {
	idx    int
	engine replicaEngine
	stats  hpacml.Stats
	in     []float64
	out    []float64
	gen    uint64
}

// newModel resolves the spec (loading the .gmod to infer or validate
// dimensions), checksums the file, publishes the loaded network to the
// shared model cache, and builds the replica pool. On failure every
// already-built replica is closed.
func newModel(spec ModelSpec, cfg Config, met *metrics) (*model, error) {
	if spec.Name == "" || spec.Path == "" {
		return nil, fmt.Errorf("serve: model spec needs a name and a path, got %+v", spec)
	}
	members := append([]string{spec.Path}, spec.Ensemble...)
	// Checksum the same bytes being loaded: hash first, then load, so a
	// concurrent retrain is caught by the next poll rather than pinning a
	// wrong checksum to the loaded weights.
	sum, err := serveapi.ModelChecksum(members)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	net, in, out, err := resolveDims(spec)
	if err != nil {
		return nil, err
	}
	hpacml.StoreModel(spec.Path, net)
	// Every ensemble member must load and agree on the primary's I/O
	// widths — a disagreeing member would corrupt the ensemble mean.
	for _, p := range spec.Ensemble {
		mnet, err := nn.Load(p)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q ensemble member %s: %w", spec.Name, p, err)
		}
		if err := validateDims(mnet, in, out); err != nil {
			return nil, fmt.Errorf("serve: model %q ensemble member %s: %w", spec.Name, p, err)
		}
		hpacml.StoreModel(p, mnet)
	}
	m := &model{
		name:     spec.Name,
		path:     spec.Path,
		members:  members,
		in:       in,
		out:      out,
		asked:    askedPrecision(spec),
		queue:    make(chan rowRange, cfg.QueueCap),
		stats:    newModelStats(cfg.MaxBatch, cfg.Workers, met.forModel(spec.Name)),
		sum:      sum,
		loadedAt: time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		rep, err := newReplica(m, spec, i, cfg.MaxBatch)
		if err != nil {
			m.closeReplicas()
			return nil, err
		}
		m.replicas = append(m.replicas, rep)
	}
	m.notePrecision(0, m.replicas[0])
	return m, nil
}

// askedPrecision names the compute path a spec requests, in
// LocalEngine.Precision's vocabulary.
func askedPrecision(spec ModelSpec) string {
	switch {
	case spec.I8:
		return "int8"
	case spec.F32:
		return "f32"
	}
	return "f64"
}

// localOptions are the LocalEngine options that request it.
func localOptions(spec ModelSpec) []hpacml.LocalOption {
	var opts []hpacml.LocalOption
	if spec.F32 {
		opts = append(opts, hpacml.WithFloat32Inference())
	}
	if spec.I8 {
		opts = append(opts, hpacml.WithInt8Inference())
	}
	return opts
}

// notePrecision records the compute path rep found itself on after
// loading generation gen. The first replica to report a generation sets
// what /v1/models shows and, when that is not what the spec asked for
// (no sidecar, a corrupt or gate-failed one, a model the compiler
// refused, an ensemble), logs the downgrade with its reason — once per
// load, not once per replica.
func (m *model) notePrecision(gen uint64, rep *replica) {
	serving, reason := rep.precision()
	if serving == m.asked {
		reason = ""
	}
	m.sumMu.Lock()
	first := m.precision == "" || gen > m.precGen
	if first {
		m.precision, m.reason, m.precGen = serving, reason, gen
	}
	m.sumMu.Unlock()
	if first && serving != m.asked {
		slog.Warn("serve: model is not served at the precision it was registered with",
			"model", m.name, "asked", m.asked, "serving", serving, "reason", reason, "generation", gen)
	}
}

// closeReplicas releases every replica engine built so far.
func (m *model) closeReplicas() {
	for _, rep := range m.replicas {
		rep.close()
	}
}

// resolveDims loads the model file to infer (or cross-check) the flat
// I/O widths the replicas will be bound to, returning the loaded
// network so callers can publish the exact validated object.
func resolveDims(spec ModelSpec) (net *nn.Network, in, out int, err error) {
	net, err = nn.Load(spec.Path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	if spec.In <= 0 && spec.Out <= 0 {
		if in, out, err = net.VectorIO(); err != nil {
			return nil, 0, 0, fmt.Errorf("serve: model %q: %w (pass explicit dimensions)", spec.Name, err)
		}
		return net, in, out, nil
	}
	if spec.In <= 0 || spec.Out <= 0 {
		return nil, 0, 0, fmt.Errorf("serve: model %q: give both In and Out or neither", spec.Name)
	}
	if err := validateDims(net, spec.In, spec.Out); err != nil {
		return nil, 0, 0, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	return net, spec.In, spec.Out, nil
}

// validateDims checks that net maps [in]-feature samples to out total
// output features.
func validateDims(net *nn.Network, in, out int) error {
	shape, err := net.OutShape([]int{in})
	if err != nil {
		return fmt.Errorf("model rejects %d-feature input: %w", in, err)
	}
	got := 1
	for _, d := range shape {
		got *= d
	}
	if got != out {
		return fmt.Errorf("model maps %d features to %d outputs, registry says %d", in, got, out)
	}
	return nil
}

// newReplica builds one worker's engine and staging slabs: a
// LocalEngine at the spec's precision, or with more than one member
// path an EnsembleEngine of its own. The engine is warmed and serves one
// zero-input row immediately, so a bad model file fails replica
// construction, not the first request.
func newReplica(m *model, spec ModelSpec, idx, maxBatch int) (*replica, error) {
	rep := &replica{
		idx: idx,
		in:  make([]float64, maxBatch*m.in),
		out: make([]float64, maxBatch*m.out),
	}
	if len(m.members) > 1 {
		ens, err := hpacml.NewLocalEnsemble(m.members...)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q replica %d: %w", m.name, idx, err)
		}
		rep.engine = ens
	} else {
		rep.engine = hpacml.NewLocalEngine(m.path, localOptions(spec)...)
	}
	err := rep.engine.Warmup(context.Background(), []int{1, m.in})
	if err == nil {
		err = rep.run(m, []rowRange{{in: rep.in[:m.in], out: rep.out[:m.out], n: 1}}, 1)
	}
	if err != nil {
		rep.close()
		return nil, fmt.Errorf("serve: model %q warmup: %w", m.name, err)
	}
	rep.stats = hpacml.Stats{} // don't count the warmup as served traffic
	return rep, nil
}

// reload swaps the replica onto generation gen: Refresh drops the
// resolved model and Warmup re-resolves it from the shared cache, where
// checkReload published the validated network — never from disk, where
// a concurrent retrain could hand replicas different or torn bytes. A
// failed swap leaves the replica's generation behind, so the next batch
// boundary tries again.
func (rep *replica) reload(m *model, gen uint64) error {
	rep.engine.Refresh()
	if err := rep.engine.Warmup(context.Background(), []int{1, m.in}); err != nil {
		return fmt.Errorf("serve: model %q replica %d reload: %w", m.name, rep.idx, err)
	}
	rep.gen = gen
	m.notePrecision(gen, rep)
	return nil
}

// precision is the compute path the replica's batches run, and why it
// may not be the one the spec asked for. Ensembles run their members in
// float64.
func (rep *replica) precision() (string, string) {
	if local, ok := rep.engine.(*hpacml.LocalEngine); ok {
		return local.Precision(), local.PrecisionReason()
	}
	return "f64", "ensemble runs f64"
}

// close releases the engine when it holds resources (an ensemble owns
// its members).
func (rep *replica) close() {
	if c, ok := rep.engine.(io.Closer); ok {
		c.Close()
	}
}

// info snapshots the registry view.
func (m *model) info() ModelInfo {
	m.sumMu.Lock()
	sum := m.sum
	loadedAt := m.loadedAt
	precision, reason := m.precision, m.reason
	m.sumMu.Unlock()
	return ModelInfo{
		Name:            m.name,
		Path:            m.path,
		Ensemble:        len(m.members),
		InDim:           m.in,
		OutDim:          m.out,
		Checksum:        sum,
		Generation:      m.gen.Load(),
		Replicas:        len(m.replicas),
		Precision:       precision,
		PrecisionReason: reason,
		LoadedAt:        loadedAt,
	}
}

// checkReload re-checksums every member file. When any byte changed,
// each changed file is loaded and validated (loadable, same I/O widths
// — a width change would no longer fit the slabs callers and replicas
// size by them and is refused), the validated networks are published
// to the shared model cache, and the model generation is bumped; each
// replica swaps onto the published weights at its next batch boundary
// (replica.reload; an ensemble engine forwards the refresh to every
// member), so in-flight ranges finish on the old ones and every replica
// sees the same objects — never a torn or re-retrained file read of its
// own.
func (m *model) checkReload() error {
	sum, err := serveapi.ModelChecksum(m.members)
	if err != nil {
		m.stats.reloadFailed()
		return fmt.Errorf("serve: model %q reload: %w", m.name, err)
	}
	m.sumMu.Lock()
	same := sum == m.sum
	m.sumMu.Unlock()
	if same {
		return nil
	}
	nets := make([]*nn.Network, len(m.members))
	for i, p := range m.members {
		net, err := nn.Load(p)
		if err != nil {
			m.stats.reloadFailed()
			return fmt.Errorf("serve: model %q reload: %w", m.name, err)
		}
		if err := validateDims(net, m.in, m.out); err != nil {
			m.stats.reloadFailed()
			return fmt.Errorf("serve: model %q reload refused (%s): %w", m.name, p, err)
		}
		nets[i] = net
	}
	// All members validated — publish atomically from the registry's
	// point of view (replicas only look after the generation bump).
	for i, p := range m.members {
		hpacml.StoreModel(p, nets[i])
	}
	m.sumMu.Lock()
	m.sum = sum
	m.loadedAt = time.Now()
	m.sumMu.Unlock()
	m.gen.Add(1)
	m.stats.reloaded()
	return nil
}
