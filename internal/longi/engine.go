package longi

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync/atomic"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/desc"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
)

// Artifact-store stage names. These are the cache's domain separators,
// one per core.MemoGroup: the pipeline's seven runtime stages collapse
// into four cacheable computations — extract+policy, desc,
// static+taint+libs, detect.
const (
	stagePolicy = "policy"
	stageDesc   = "desc"
	stageStatic = "static"
	stageDetect = "detect"
)

// Serialized stage outputs. Everything in them is plain exported data,
// so a JSON round trip is lossless — the engine relies on that to make
// a freshly computed artifact and a reloaded one structurally
// identical (see putArtifact). Each artifact copies its group's report
// fields in (take) and out (fill).
type artifact interface {
	take(r *core.Report)
	fill(r *core.Report)
}

type policyArtifact struct {
	Analysis *policy.Analysis `json:"analysis"`
}

func (a *policyArtifact) take(r *core.Report) { a.Analysis = r.Policy }
func (a *policyArtifact) fill(r *core.Report) { r.Policy = a.Analysis }

type descArtifact struct {
	Result *desc.Result `json:"result"`
}

func (a *descArtifact) take(r *core.Report) { a.Result = r.Desc }
func (a *descArtifact) fill(r *core.Report) { r.Desc = a.Result }

type staticArtifact struct {
	Result *static.Result      `json:"result"`
	Libs   []libdetect.Library `json:"libs"`
}

func (a *staticArtifact) take(r *core.Report) { a.Result, a.Libs = r.Static, r.Libs }
func (a *staticArtifact) fill(r *core.Report) { r.Static, r.Libs = a.Result, a.Libs }

type detectArtifact struct {
	Incomplete   []core.IncompleteFinding    `json:"incomplete"`
	Incorrect    []core.IncorrectFinding     `json:"incorrect"`
	Inconsistent []core.InconsistencyFinding `json:"inconsistent"`
}

func (a *detectArtifact) take(r *core.Report) {
	a.Incomplete, a.Incorrect, a.Inconsistent = r.Incomplete, r.Incorrect, r.Inconsistent
}

func (a *detectArtifact) fill(r *core.Report) {
	r.Incomplete, r.Incorrect, r.Inconsistent = a.Incomplete, a.Incorrect, a.Inconsistent
}

// newArtifact returns an empty artifact for stage group g.
func newArtifact(g core.MemoGroup) artifact {
	switch g {
	case core.MemoPolicy:
		return &policyArtifact{}
	case core.MemoDesc:
		return &descArtifact{}
	case core.MemoStatic:
		return &staticArtifact{}
	}
	return &detectArtifact{}
}

// CacheStats counts artifact-store traffic. It is execution metadata,
// not analysis output: the differential oracle compares reports and
// run stats, never cache stats (those are exactly what differs between
// a cold and a delta run).
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	StoreErrors int64 `json:"store_errors"`
}

// Lookups is the total number of stage-cache probes.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits/Lookups in [0,1]; 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Engine runs the content-addressed incremental pipeline. It is
// stateless apart from the store handle, the config fingerprint, and
// atomic counters, so one engine serves any number of concurrent
// workers; per-worker state (analyzers) lives in the core.Checker each
// caller passes in, which must be built from Config.CheckerOptions().
type Engine struct {
	store Store
	cfg   Config
	fp    []byte

	hits, misses, puts, storeErrs atomic.Int64

	// stageHook, when set by a test, runs on every memo miss, before
	// the group's stages (cache hits bypass it); returning an error or
	// panicking fails the group. It exists to prove failure paths —
	// timeouts, panics, exhausted retry budgets — never write
	// artifacts.
	stageHook func(ctx context.Context, stage string) error
}

// NewEngine builds an engine over the given artifact store and checker
// configuration.
func NewEngine(store Store, cfg Config) *Engine {
	return &Engine{store: store, cfg: cfg, fp: cfg.Fingerprint()}
}

// Config returns the engine's checker configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats snapshots the cache counters accumulated so far.
func (e *Engine) Stats() CacheStats {
	return CacheStats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Puts:        e.puts.Load(),
		StoreErrors: e.storeErrs.Load(),
	}
}

// CheckVersion analyzes one app version through the artifact store:
// core.Checker.CheckMemo runs the pipeline, and the version's memo
// serves each stage group by content address when present and stores
// it when computed. The report matches core.CheckSafe finding-for-
// finding, degraded inputs included, except that it carries no
// Timings — a longitudinal report must be bit-identical however its
// stages were satisfied, and wall-clock timings are the one field that
// never could be.
//
// CheckMemo decides what is stored: a group only when none of its
// stages degraded, the detect group only when nothing degraded at all.
// A version that degraded under a timeout or an exhausted retry budget
// therefore leaves no partial output to poison later runs.
func (e *Engine) CheckVersion(ctx context.Context, checker *core.Checker, app *core.App) (*core.Report, error) {
	if app == nil {
		return nil, errors.New("longi: nil app")
	}
	if checker == nil {
		return nil, errors.New("longi: nil checker")
	}
	r, err := checker.CheckMemo(ctx, app, newVersionMemo(e, app))
	if r != nil {
		r.Timings = nil
	}
	return r, err
}

// versionMemo is the core.StageMemo of one app version. The policy,
// description and static keys address the group inputs; the detect
// key chains those three plus the library-policy set.
type versionMemo struct {
	e   *Engine
	app *core.App
	// skey is "no-apk" for an app without an APK and "" for one whose
	// APK cannot be encoded: such a version's static and detect groups
	// have no content address and always miss.
	pkey, dkey, skey, tkey string
}

func newVersionMemo(e *Engine, app *core.App) *versionMemo {
	m := &versionMemo{
		e:    e,
		app:  app,
		pkey: StageKey(stagePolicy, e.fp, []byte(app.PolicyHTML)),
		dkey: StageKey(stageDesc, e.fp, []byte(app.Description)),
		skey: "no-apk",
	}
	if app.APK != nil {
		m.skey = ""
		if b, err := apk.Encode(app.APK); err == nil {
			m.skey = StageKey(stageStatic, e.fp, b)
		}
	}
	return m
}

// key returns group g's store stage and content address; the address
// is "" when g cannot be keyed.
func (m *versionMemo) key(g core.MemoGroup) (stage, key string) {
	switch g {
	case core.MemoPolicy:
		return stagePolicy, m.pkey
	case core.MemoDesc:
		return stageDesc, m.dkey
	case core.MemoStatic:
		return stageStatic, m.skey
	}
	if m.tkey == "" && m.skey != "" {
		m.tkey = StageKey(stageDetect, m.e.fp,
			[]byte(m.pkey), []byte(m.dkey), []byte(m.skey), libPolicyBytes(m.app.LibPolicies))
	}
	return stageDetect, m.tkey
}

// Load implements core.StageMemo.
func (m *versionMemo) Load(ctx context.Context, g core.MemoGroup, r *core.Report) (bool, error) {
	stage, key := m.key(g)
	if art, ok := loadArtifact(m.e, g, stage, key); ok {
		art.fill(r)
		return true, nil
	}
	if m.e.stageHook != nil {
		return false, m.e.stageHook(ctx, stage)
	}
	return false, nil
}

// Store implements core.StageMemo.
func (m *versionMemo) Store(g core.MemoGroup, r *core.Report) {
	if stage, key := m.key(g); key != "" {
		putArtifact(m.e, g, stage, key, r)
	}
}

// loadArtifact fetches and decodes one artifact; an unkeyed group is a
// miss. Store errors and corrupt payloads are both treated as misses —
// the stage recomputes — with the error counted. Decoding goes through
// a fresh value so a corrupt payload can never reach the report.
func loadArtifact(e *Engine, g core.MemoGroup, stage, key string) (artifact, bool) {
	if key == "" {
		e.misses.Add(1)
		return nil, false
	}
	data, ok, err := e.store.Get(stage, key)
	if err != nil {
		e.storeErrs.Add(1)
	}
	if err != nil || !ok {
		e.misses.Add(1)
		return nil, false
	}
	art := newArtifact(g)
	if err := json.Unmarshal(data, art); err != nil {
		e.storeErrs.Add(1)
		e.misses.Add(1)
		return nil, false
	}
	e.hits.Add(1)
	return art, true
}

// putArtifact serializes and stores one group's report fields, and —
// crucially for the delta-vs-cold bit-identity bar — replaces them
// with their own JSON round trip, so the report assembled from a fresh
// compute is structurally identical to one assembled from a future
// cache hit (nil-vs-empty slices and any other encoding normalization
// included). A store write failure only loses the cache entry; the
// computed value remains usable.
func putArtifact(e *Engine, g core.MemoGroup, stage, key string, r *core.Report) {
	art := newArtifact(g)
	art.take(r)
	data, err := json.Marshal(art)
	if err != nil {
		e.storeErrs.Add(1)
		return
	}
	fresh := newArtifact(g)
	if err := json.Unmarshal(data, fresh); err != nil {
		e.storeErrs.Add(1)
		return
	}
	fresh.fill(r)
	if err := e.store.Put(stage, key, data); err != nil {
		e.storeErrs.Add(1)
		return
	}
	e.puts.Add(1)
}

// libPolicyBytes canonically frames the app's library-policy set (an
// input to the detect stage that no other stage key covers).
func libPolicyBytes(m map[string]string) []byte {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	sections := make([][]byte, 0, 2*len(names))
	for _, n := range names {
		sections = append(sections, []byte(n), []byte(m[n]))
	}
	return Frame("lib-policies", sections...)
}
