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
	"repro/internal/tensor"
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
	// EnsembleEngine of its own over the generation's member engines: the response is the member-mean prediction, and
	// the per-row predictive variance is available to trust gates. All
	// members must share the primary's I/O widths.
	Ensemble []string
	In       int
	Out      int
	// F32 serves the model through the single-precision inference path:
	// each generation's LocalEngine is built WithFloat32Inference,
	// converts the weights to float32 once at load and runs batches in
	// single precision. Ensembles ignore it, and a model the f32 compiler
	// cannot handle stays float64 — ModelInfo.Precision says which path
	// serves, ModelInfo.PrecisionReason why it is not the asked one, and
	// a downgrade is logged once per load.
	F32 bool
	// I8 serves the model through the quantized int8 path: each
	// generation's LocalEngine is built WithInt8Inference and runs the
	// int8 program compiled once from the ".quant" calibration sidecar
	// beside the model file (written by hpacml-quant), read with the
	// weights as part of the model's file set. A missing, corrupt or gate-failed sidecar, or one fitted for
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
	opts    []hpacml.LocalOption // the LocalEngine options its members are built with

	// queue carries row ranges of caller-owned slabs; waiting counts the
	// rows in it, which is what QueueCap bounds.
	queue   chan rowRange
	waiting atomic.Int64

	replicas []*replica
	stats    *modelStats

	// gen is the served generation; replicas compare it against their
	// own at each batch boundary and swap onto it on mismatch.
	gen atomic.Pointer[generation]
	// loadMu serializes load steps (the poll and the learner's reload),
	// so generations publish in the order their files were read;
	// closed, guarded by it, stops later loads.
	loadMu sync.Mutex
	closed bool
}

// generation is one published file set: the engines every replica runs
// and what /v1/models reports of them. It is immutable once published.
type generation struct {
	num uint64 // accepted reloads before it: ModelInfo.Generation
	// engines holds one warmed LocalEngine per member, path first. Every
	// replica runs them: a warmed LocalEngine's Infer is safe for
	// concurrent use.
	engines []*hpacml.LocalEngine
	sum     string // ModelInfo.Checksum
	// loadedAt is when the served weights were (re)loaded — provenance
	// for /v1/models.
	loadedAt time.Time
	// precision is the compute path the engines run, and reason why it
	// is not the asked one.
	precision string
	reason    string
}

// engine returns what a replica runs on the generation: its one
// LocalEngine, or for a member set an EnsembleEngine over the shared
// members, whose scratch is the caller's own.
func (g *generation) engine() hpacml.Engine {
	if len(g.engines) == 1 {
		return g.engines[0]
	}
	members := make([]hpacml.Engine, len(g.engines))
	for i, e := range g.engines {
		members[i] = e
	}
	ens, _ := hpacml.NewEnsembleEngine(members...) // fails only without members
	return ens
}

// replica is one worker's single-threaded execution context: the
// engine it runs on generation gen and the [MaxBatch, in] /
// [MaxBatch, out] staging slabs that stack short ranges into one batch.
type replica struct {
	idx    int
	engine hpacml.Engine
	in     []float64
	out    []float64
	gen    *generation
}

// newModel registers the spec: the load step reads, checks and
// publishes its file set (inferring the dimensions from the primary
// when the spec leaves them zero), then the replica pool is built on
// the published generation.
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
		rep := &replica{
			idx: i,
			in:  make([]float64, cfg.MaxBatch*m.in),
			out: make([]float64, cfg.MaxBatch*m.out),
		}
		rep.swap(m.gen.Load())
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

// localOptions are the LocalEngine options that request it; an
// ensemble's members run float64.
func localOptions(spec ModelSpec) []hpacml.LocalOption {
	var opts []hpacml.LocalOption
	if len(spec.Ensemble) > 0 {
		return nil
	}
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
// left them zero). It builds one LocalEngine per member from the
// decoded network and its .quant bytes, which compiles the
// generation's program once, warms them and serves one zero-input row
// through the engine the replicas will run. Only a set that passes all
// of this is published, by one pointer store that replicas pick up at
// their next batch boundary; a downgrade from the asked precision is
// logged once. It reports whether it published a new set.
func (m *model) load() (bool, error) {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if m.closed {
		return false, ErrServerClosed
	}
	set, err := readSet(m.members)
	if err != nil {
		return false, err
	}
	cur := m.gen.Load()
	if cur != nil && set.sum == cur.sum {
		return false, nil
	}
	g := &generation{sum: set.sum, loadedAt: time.Now(), engines: make([]*hpacml.LocalEngine, len(m.members))}
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
		g.engines[i] = hpacml.NewLocalEngineFor(p, net, set.file(nn.QuantPath(p)), m.opts...)
	}
	if err := check(g.engine(), m.in, m.out); err != nil {
		return false, fmt.Errorf("warmup: %w", err)
	}
	g.precision, g.reason = g.engines[0].Precision(), g.engines[0].PrecisionReason()
	if len(m.members) > 1 && m.asked != "f64" {
		g.reason = "ensemble runs f64"
	}
	if cur != nil {
		g.num = cur.num + 1
	}
	m.gen.Store(g)
	if g.precision != m.asked {
		slog.Warn("serve: model is not served at the precision it was registered with",
			"model", m.name, "asked", m.asked, "serving", g.precision, "reason", g.reason, "generation", g.num)
	}
	return true, nil
}

// check warms eng for the model's widths and serves one zero-input row
// through it, so a file set that cannot serve fails its load, not a
// batch.
func check(eng hpacml.Engine, in, out int) error {
	if err := eng.Warmup(context.Background(), []int{1, in}); err != nil {
		return err
	}
	return eng.Infer(context.Background(), tensor.New(1, in), tensor.New(1, out))
}

// close stops later loads.
func (m *model) close() {
	m.loadMu.Lock()
	m.closed = true
	m.loadMu.Unlock()
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

// swap points the replica at generation g: its shared engine, or an
// ensemble of its own over the shared members. It reads no file and
// compiles nothing.
func (rep *replica) swap(g *generation) {
	rep.engine, rep.gen = g.engine(), g
}

// info snapshots the registry view.
func (m *model) info() ModelInfo {
	g := m.gen.Load()
	return ModelInfo{
		Name:            m.name,
		Path:            m.path,
		Ensemble:        len(m.members),
		InDim:           m.in,
		OutDim:          m.out,
		Checksum:        g.sum,
		Generation:      g.num,
		Replicas:        len(m.replicas),
		Precision:       g.precision,
		PrecisionReason: g.reason,
		LoadedAt:        g.loadedAt,
	}
}

// checkReload runs the load step. When it published a new generation,
// each replica swaps onto its engines at its next batch boundary
// (replica.swap), so in-flight ranges finish on the old ones and every
// replica runs the same objects. A failed load keeps the served set and
// counts a failed reload.
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
