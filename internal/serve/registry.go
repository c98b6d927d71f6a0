package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
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
	// replica's LocalEngine is built WithInt8Inference and runs the int8
	// program compiled once per generation from the ".quant"
	// calibration sidecar beside the model file (written by
	// hpacml-quant), read with the weights as part of the model's file
	// set. A missing, corrupt or gate-failed sidecar, or one fitted for
	// other weights, keeps the wider path (reported and logged like
	// F32's), and ensembles ignore it. When both F32 and I8 are set the
	// engine prefers int8 where the sidecar allows it.
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
	asked   string               // the precision the spec requested: "int8", "f32" or "f64"
	opts    []hpacml.LocalOption // the LocalEngine options that request it

	// queue carries row ranges of caller-owned slabs; waiting counts the
	// rows in it, which is what QueueCap bounds.
	queue   chan rowRange
	waiting atomic.Int64

	replicas []*replica
	stats    *modelStats

	// gen counts accepted reloads; replicas compare it against their own
	// generation at each batch boundary and re-resolve their engine on
	// mismatch, picking up the network and program load published to
	// the shared cache.
	gen atomic.Uint64
	// loadMu serializes load steps (the poll and the learner's reload),
	// so generations publish in the order their files were read.
	loadMu sync.Mutex
	// published holds the networks the last load stored, one per
	// member, for close to take back out of the shared cache; released
	// stops later loads. Both are guarded by loadMu.
	published []*nn.Network
	released  bool

	sumMu sync.Mutex
	sum   string // ModelInfo.Checksum
	// loadedAt is when the served weights were (re)loaded — provenance
	// for /v1/models, guarded by sumMu like the checksum it travels with.
	loadedAt time.Time
	// precision is the compute path the replicas run on the served
	// generation, and reason why it is not the asked one; load decides
	// both once per generation. Guarded by sumMu.
	precision string
	reason    string
}

// replicaEngine is what a replica needs of its engine: the Engine calls
// plus the hot-reload hook both local backends export.
type replicaEngine interface {
	hpacml.Engine
	Refresh()
}

// replica is one worker's single-threaded execution context: an engine
// (a LocalEngine, or an EnsembleEngine for a member set — engine
// scratch is single-threaded, so replicas never share one) and the
// [MaxBatch, in] / [MaxBatch, out] staging slabs that stack short
// ranges into one batch.
type replica struct {
	idx    int
	engine replicaEngine
	in     []float64
	out    []float64
	gen    uint64
}

// newModel registers the spec: the load step reads, checks and
// publishes its file set (inferring the dimensions from the primary
// when the spec leaves them zero), then the replica pool is built on
// the published generation. On failure every already-built replica is
// closed and the published networks are released.
func newModel(spec ModelSpec, cfg Config, met *metrics) (*model, error) {
	if spec.Name == "" || spec.Path == "" {
		return nil, fmt.Errorf("serve: model spec needs a name and a path, got %+v", spec)
	}
	if (spec.In <= 0) != (spec.Out <= 0) {
		return nil, fmt.Errorf("serve: model %q: give both In and Out or neither", spec.Name)
	}
	m := &model{
		name:    spec.Name,
		path:    spec.Path,
		members: append([]string{spec.Path}, spec.Ensemble...),
		in:      max(spec.In, 0),
		out:     max(spec.Out, 0),
		asked:   askedPrecision(spec),
		opts:    localOptions(spec),
		queue:   make(chan rowRange, cfg.QueueCap),
		stats:   newModelStats(cfg.MaxBatch, met.forModel(spec.Name)),
	}
	if _, err := m.load(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", spec.Name, err)
	}
	for i := 0; i < cfg.Workers; i++ {
		rep, err := newReplica(m, i, cfg.MaxBatch)
		if err != nil {
			m.close()
			return nil, err
		}
		m.replicas = append(m.replicas, rep)
	}
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

// testHookOpened, when set, runs after readSet opens each file of a
// set, before reading it. Test seam: a live swap racing the read, and
// the reads per load.
var testHookOpened func(path string)

// fileSet is one consistent read of a model's file set: the
// serveapi.ModelFiles of its members, each read once, and the checksum
// of those bytes.
type fileSet struct {
	files []string
	data  [][]byte
	sum   string
}

// file returns what was read for path, or nil when it is not in the
// set (a sidecar that does not exist).
func (fs *fileSet) file(path string) []byte {
	for i, f := range fs.files {
		if f == path {
			return fs.data[i]
		}
	}
	return nil
}

// readSet reads a member set's files once. It opens each file of the
// set through its symlinks and reads what it opened, then checks that
// every path still names the file it read: if a swap moved any path (or
// changed which sidecars exist) in between, it reads the set again, up
// to four reads in all, so a set never mixes the files of two
// generations.
func readSet(members []string) (*fileSet, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		files := serveapi.ModelFiles(members)
		data := make([][]byte, len(files))
		read := make([]os.FileInfo, len(files))
		for i, f := range files {
			if data[i], read[i], err = readFile(f); err != nil {
				break
			}
		}
		if err == nil && moved(members, files, read) {
			err = errors.New("file set moved during the read")
			continue
		}
		if err == nil {
			return &fileSet{files: files, data: data, sum: serveapi.SetChecksum(data)}, nil
		}
	}
	return nil, err
}

// readFile reads the file path names, and which file that was.
func readFile(path string) ([]byte, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if testHookOpened != nil {
		testHookOpened(path)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	b := make([]byte, fi.Size())
	_, err = io.ReadFull(f, b)
	return b, fi, err
}

// moved reports whether a member set now names other files than the
// ones read.
func moved(members, files []string, read []os.FileInfo) bool {
	if !slices.Equal(files, serveapi.ModelFiles(members)) {
		return true
	}
	for i, f := range files {
		if fi, err := os.Stat(f); err != nil || !os.SameFile(fi, read[i]) {
			return true
		}
	}
	return false
}

// load is the one load step of registration and hot reload. It reads
// the file set once (readSet); when the checksum of those bytes differs
// from the served one, it decodes every member from the same bytes and
// checks it against the registered widths (a width change would no
// longer fit the slabs callers and replicas size by them, and is
// refused; the first load infers them from the primary when the spec
// left them zero). Only a set whose members all pass is published: each
// network with its .quant bytes into the shared cache, where its
// programs are compiled once for the whole replica pool. load then
// decides the generation's precision and reason once, and logs a
// downgrade from the asked precision once. A reload bumps the model
// generation last, so replicas swap onto a complete publication. It
// reports whether it published a new set.
func (m *model) load() (bool, error) {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if m.released {
		return false, ErrServerClosed
	}
	set, err := readSet(m.members)
	if err != nil {
		return false, err
	}
	m.sumMu.Lock()
	first, same := m.sum == "", set.sum == m.sum
	m.sumMu.Unlock()
	if same {
		return false, nil
	}
	nets := make([]*nn.Network, len(m.members))
	for i, p := range m.members {
		net, err := nn.Decode(bytes.NewReader(set.file(p)))
		if err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
		if m.in == 0 {
			if m.in, m.out, err = net.VectorIO(); err != nil {
				return false, fmt.Errorf("%w (pass explicit dimensions)", err)
			}
		}
		if err := validateDims(net, m.in, m.out); err != nil {
			return false, fmt.Errorf("refused %s: %w", p, err)
		}
		nets[i] = net
	}
	for i, p := range m.members {
		hpacml.StoreModel(p, nets[i], set.file(nn.QuantPath(p)))
	}
	m.published = nets
	precision, reason := m.servedPrecision()
	m.sumMu.Lock()
	m.sum, m.loadedAt, m.precision, m.reason = set.sum, time.Now(), precision, reason
	m.sumMu.Unlock()
	gen := m.gen.Load()
	if !first {
		gen = m.gen.Add(1)
	}
	if precision != m.asked {
		slog.Warn("serve: model is not served at the precision it was registered with",
			"model", m.name, "asked", m.asked, "serving", precision, "reason", reason, "generation", gen)
	}
	return true, nil
}

// servedPrecision is the compute path the replicas will find on the
// generation just published, and why it is not the asked one. A local
// model is resolved once through an engine built like the replicas'
// (which compiles the entry's program, so the replicas only take it);
// ensembles run their members in float64.
func (m *model) servedPrecision() (string, string) {
	if len(m.members) > 1 {
		if m.asked == "f64" {
			return "f64", ""
		}
		return "f64", "ensemble runs f64"
	}
	e := hpacml.NewLocalEngine(m.path, m.opts...)
	if err := e.Warmup(context.Background(), nil); err != nil {
		return "f64", err.Error()
	}
	return e.Precision(), e.PrecisionReason()
}

// close releases every replica engine built so far, then drops the
// networks load published from the shared model cache
// (hpacml.ReleaseModel), so a closed server leaves no entry behind but
// one another publisher stored since. No load publishes afterwards.
func (m *model) close() {
	for _, rep := range m.replicas {
		rep.close()
	}
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	for i, net := range m.published {
		hpacml.ReleaseModel(m.members[i], net)
	}
	m.published, m.released = nil, true
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
func newReplica(m *model, idx, maxBatch int) (*replica, error) {
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
		rep.engine = hpacml.NewLocalEngine(m.path, m.opts...)
	}
	err := rep.engine.Warmup(context.Background(), []int{1, m.in})
	if err == nil {
		_, err = rep.run(m, []rowRange{{in: rep.in[:m.in], out: rep.out[:m.out], n: 1}}, 1)
	}
	if err != nil {
		rep.close()
		return nil, fmt.Errorf("serve: model %q warmup: %w", m.name, err)
	}
	return rep, nil
}

// reload swaps the replica onto generation gen: Refresh drops the
// resolved model and Warmup takes the shared cache entry the load step
// published — its network and the program it compiled once for the
// pool. It reads no file and compiles nothing, so every replica serves
// the same bytes. A failed swap leaves the replica's generation behind,
// so the next batch boundary tries again.
func (rep *replica) reload(m *model, gen uint64) error {
	rep.engine.Refresh()
	if err := rep.engine.Warmup(context.Background(), []int{1, m.in}); err != nil {
		return fmt.Errorf("serve: model %q replica %d reload: %w", m.name, rep.idx, err)
	}
	rep.gen = gen
	return nil
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

// checkReload runs the load step. When it published a new set (and
// bumped the model generation), each replica swaps onto the published
// networks at its next batch boundary (replica.reload; an ensemble
// engine forwards the refresh to every member), so in-flight ranges
// finish on the old ones and every replica sees the same objects. A
// failed load keeps the served set and counts a failed reload.
func (m *model) checkReload() error {
	changed, err := m.load()
	if err != nil {
		m.stats.reloadFailed()
		return fmt.Errorf("serve: model %q reload: %w", m.name, err)
	}
	if changed {
		m.stats.reloaded()
	}
	return nil
}
