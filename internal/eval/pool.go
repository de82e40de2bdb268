package eval

import (
	"context"
	"sync"

	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/obs"
)

// Pool is the analysis worker pool every execution mode runs on: the
// corpus runner, the stream, the ppserve service and the dist worker.
// It owns the per-goroutine checkers and their shared wiring (library
// policy cache, observer, ESA stat scope) and the per-app attempt
// contract (run span, retries, quarantine, exhaustion). Callers own
// only their own plumbing: what feeds the workers and where results go.
type Pool struct {
	checkerOpts []core.CheckerOption
	libCache    *core.AnalysisCache
	esaScope    *esa.StatScope
	obs         *obs.Observer
	attempt     AttemptOptions
}

// NewPool wires a pool. Every worker's checker gets checkerOpts plus
// the shared library-policy cache (a fresh one when libCache is nil),
// the observer (when non-nil) and a per-pool ESA stat scope, so
// concurrent pools sharing the process-global interpret memo don't
// count each other's hits and misses.
func NewPool(checkerOpts []core.CheckerOption, libCache *core.AnalysisCache, observer *obs.Observer, attempt AttemptOptions) *Pool {
	if libCache == nil {
		libCache = core.NewAnalysisCache()
	}
	p := &Pool{libCache: libCache, esaScope: esa.NewStatScope(), obs: observer, attempt: attempt}
	p.checkerOpts = append(append([]core.CheckerOption{}, checkerOpts...),
		core.WithSharedAnalysisCache(libCache))
	if observer != nil {
		p.checkerOpts = append(p.checkerOpts, core.WithObserver(observer))
	}
	p.checkerOpts = append(p.checkerOpts, core.WithESAStatScope(p.esaScope))
	return p
}

// Cache returns the pool's shared library-policy analysis cache.
func (p *Pool) Cache() *core.AnalysisCache { return p.libCache }

// StatScope returns the pool's ESA stat scope.
func (p *Pool) StatScope() *esa.StatScope { return p.esaScope }

// Run starts n worker goroutines (at least one), each running loop on
// its own Worker, and returns when every loop has returned.
func (p *Pool) Run(n int, loop func(*Worker)) {
	if n < 1 {
		n = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(&Worker{pool: p, checker: core.NewChecker(p.checkerOpts...)})
		}()
	}
	wg.Wait()
}

// RecordCounters adds the pool's cache economics to its observer: the
// ESA interpret memo and vector pool traffic attributed to this pool,
// and the shared lib-policy cache (analyses performed must not exceed
// unique policy texts). A no-op without an observer.
func (p *Pool) RecordCounters() {
	if p.obs == nil {
		return
	}
	core.RecordESACacheCounters(p.obs, p.esaScope.Snapshot())
	_, analyses := p.libCache.Stats()
	p.obs.AddCounter("lib-policy-analyses", analyses)
	p.obs.AddCounter("lib-policy-unique-texts", int64(p.libCache.Len()))
}

// Worker is one pool goroutine's handle. Its checker is not safe for
// concurrent use, so a Worker must stay on the goroutine Run gave it to.
type Worker struct {
	pool    *Pool
	checker *core.Checker
}

// AppResult is one app's finished analysis.
type AppResult struct {
	// Report is never nil (see CheckApp).
	Report  *core.Report
	Outcome Outcome
	Retries int
	// Exhausted: the app spent its whole non-zero retry budget with the
	// final attempt still erroring (see AttemptOptions.Exhausted).
	Exhausted bool
	// Quarantined: the app ran with its retry budget withheld.
	Quarantined bool
}

// Check analyzes one app under the pool's attempt options inside a
// StageRun span. A quarantined app gets no retries.
func (w *Worker) Check(ctx context.Context, name string,
	run func(context.Context, *core.Checker) (*core.Report, error), quarantined bool) AppResult {
	att := w.pool.attempt
	if quarantined {
		att.MaxRetries = 0
	}
	sp := w.pool.obs.Start(string(core.StageRun), name, "")
	rep, outcome, retries := CheckApp(ctx, w.checker, name, run, att)
	sp.End(runError(rep, outcome), false)
	return AppResult{
		Report:      rep,
		Outcome:     outcome,
		Retries:     retries,
		Exhausted:   att.Exhausted(outcome, rep, retries),
		Quarantined: quarantined,
	}
}

// runError maps a per-app outcome to the error recorded on its run
// span: hard failures and skips carry the report's StageRun error,
// clean and degraded runs count as successes (degradation is already
// visible on the individual stage spans).
func runError(rep *core.Report, outcome Outcome) error {
	if outcome != OutcomeFailed && outcome != OutcomeSkipped {
		return nil
	}
	for _, e := range rep.Degraded {
		if e.Stage == core.StageRun {
			return e
		}
	}
	return context.Canceled
}
