package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// The ppstream defaults for per-app attempts and the breaker, which
// the benchmark runs with so it measures what the binaries do.
const (
	perAppTimeout    = 30 * time.Second
	maxRetries       = 1
	retryBackoff     = 50 * time.Millisecond
	retryJitter      = 0.5
	breakerThreshold = 8
)

// sampleEvery picks the apps whose reports are checked against the
// serial reference (every sampleEvery-th app of the sequence).
const sampleEvery = 101

// groupSize is the number of consecutive distinct apps whose
// completion latency is the batch_* metric: the size of a ppserve
// /check-batch request in serve-mixed.
const groupSize = 4

// appTimes follows one app through a stream or fleet, as offsets from
// the run's origin.
type appTimes struct {
	idx              int64
	gen              time.Duration // time inside the source's Next
	ready            time.Duration // left the source
	runStart, runEnd time.Duration // inside Item.Run (traced stream only)
	done             time.Duration // result delivered
	out              *appDigest    // sampled apps only
}

// ledger tracks the apps a source has handed out until they complete.
type ledger struct {
	t0     time.Time
	mu     sync.Mutex
	open   map[string]*appTimes
	closed []*appTimes
}

func newLedger(t0 time.Time) *ledger {
	return &ledger{t0: t0, open: map[string]*appTimes{}}
}

func (l *ledger) since() time.Duration { return time.Since(l.t0) }

func (l *ledger) issue(name string, at *appTimes) {
	l.mu.Lock()
	l.open[name] = at
	l.mu.Unlock()
}

// finish marks name complete and returns its record; nil if unknown
// or already finished.
func (l *ledger) finish(name string) *appTimes {
	now := l.since()
	l.mu.Lock()
	defer l.mu.Unlock()
	at := l.open[name]
	if at == nil {
		return nil
	}
	delete(l.open, name)
	at.done = now
	l.closed = append(l.closed, at)
	return at
}

// groupLatencies is the completion latency, in ms, of each complete
// group of groupSize consecutive apps: from the first app leaving the
// source to the last result.
func (l *ledger) groupLatencies() *Samples {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.closed, func(i, j int) bool { return l.closed[i].idx < l.closed[j].idx })
	s := &Samples{}
	for i := 0; i+groupSize <= len(l.closed); {
		g := l.closed[i : i+groupSize]
		if g[0].idx%groupSize != 0 || g[groupSize-1].idx != g[0].idx+groupSize-1 {
			i++
			continue
		}
		start, end := g[0].ready, g[0].done
		for _, at := range g {
			start = min(start, at.ready)
			end = max(end, at.done)
		}
		s.Add(float64(end-start) / 1e6)
		i += groupSize
	}
	return s
}

// deadlineSource hands out a firehose until its deadline passes, then
// reports io.EOF so the run ends the way a finite source does. It
// records each item in the ledger and, when traced, wraps the item's
// Run closure to time the analysis.
type deadlineSource struct {
	src      stream.Source
	led      *ledger
	deadline atomic.Int64 // UnixNano; 0 = not armed yet
	traced   bool
	next     int64
}

func (s *deadlineSource) arm(d time.Time) { s.deadline.Store(d.UnixNano()) }

func (s *deadlineSource) Next(ctx context.Context) (*stream.Item, error) {
	if d := s.deadline.Load(); d != 0 && time.Now().UnixNano() >= d {
		return nil, io.EOF
	}
	start := s.led.since()
	item, err := s.src.Next(ctx)
	if err != nil {
		return nil, err
	}
	end := s.led.since()
	at := &appTimes{idx: s.next, gen: end - start, ready: end}
	s.next++
	if s.traced {
		run := item.Run
		item.Run = func(ctx context.Context, c *core.Checker) (*core.Report, error) {
			at.runStart = s.led.since()
			rep, err := run(ctx, c)
			at.runEnd = s.led.since()
			return rep, err
		}
	}
	s.led.issue(item.Name, at)
	return item, nil
}

// genMean is the mean time the source spent generating each app.
func genMean(closed []*appTimes) Stat {
	var s Samples
	for _, at := range closed {
		s.Add(float64(at.gen) / 1e3)
	}
	return s.Mean()
}

// checkSampled compares every sampled app's output with a serial
// reference regenerated from the same seed and index.
func checkSampled(check *outputCheck, seed int64, closed []*appTimes) error {
	fh := synth.NewFirehose(seed)
	ref := core.NewChecker()
	for _, at := range closed {
		if at.out == nil {
			continue
		}
		ga, err := fh.App(at.idx)
		if err != nil {
			return err
		}
		want, err := referenceOutput(ref, ga.App)
		if err != nil {
			return err
		}
		check.compareApp(fmt.Sprintf("firehose app %d", at.idx), want, *at.out)
	}
	return nil
}

// checkJournal reopens a finished run's journal and checks it holds
// each app exactly once.
func checkJournal(check *outputCheck, path string, apps int) error {
	j, replay, err := stream.OpenJournal(path, "", stream.JournalOptions{})
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	if err := j.Close(); err != nil {
		return err
	}
	check.compared++
	if replay.Records != apps || len(replay.Done) != apps || replay.Duplicates != 0 {
		check.failf("journal: %d records, %d distinct apps, %d duplicates; want each of %d apps once",
			replay.Records, len(replay.Done), replay.Duplicates, apps)
	}
	return nil
}

// replayFirehose replays firehose apps 0..n-1, at most replayApps of
// them, stage by stage.
func replayFirehose(check *outputCheck, seed int64, n int64) (*stageReplay, error) {
	n = min(n, replayApps)
	fh := synth.NewFirehose(seed)
	r := newStageReplay(check)
	for i := int64(0); i < n; i++ {
		ga, err := fh.App(i)
		if err != nil {
			return nil, err
		}
		if err := r.run(int(i), ga.App); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func openRunJournal(cfg config) (*stream.Journal, string, func(), error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.workDir, "tmp"), cfg.workload+"-")
	if err != nil {
		return nil, "", nil, err
	}
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := stream.OpenJournal(path, "firehose", stream.JournalOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	return j, path, func() { os.RemoveAll(dir) }, nil
}

// setupStream: the journal is open and a checker is built.
func setupStream(cfg config) (time.Duration, error) {
	start := time.Now()
	j, _, cleanup, err := openRunJournal(cfg)
	if err != nil {
		return 0, err
	}
	_ = core.NewChecker()
	d := time.Since(start)
	j.Close()
	cleanup()
	return d, nil
}

func runStream(cfg config) (*runResult, error) {
	src := stream.NewFirehoseSource(cfg.seed, 0)

	setupStart := time.Now()
	journal, journalPath, cleanup, err := openRunJournal(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	_ = core.NewChecker()
	res := &runResult{setup: time.Since(setupStart), info: map[string]any{}}

	t0 := time.Now()
	led := newLedger(t0)
	dsrc := &deadlineSource{src: src, led: led, traced: cfg.trace}
	observer := obs.New()
	var onResultErr atomic.Value
	opts := stream.Options{
		PerAppTimeout:       perAppTimeout,
		MaxRetries:          maxRetries,
		RetryBackoff:        retryBackoff,
		RetryJitter:         retryJitter,
		Observer:            observer,
		Journal:             journal,
		Breaker:             stream.NewBreaker(stream.BreakerConfig{Threshold: breakerThreshold}),
		SharedAnalysisCache: core.NewAnalysisCache(),
		OnResult: func(r stream.Result) {
			at := led.finish(r.Name)
			if at == nil || at.idx%sampleEvery != 0 {
				return
			}
			out, err := outputOf(r.Report, r.Outcome)
			if err != nil {
				onResultErr.Store(err)
				return
			}
			d := out.digest()
			at.out = &d
		},
	}

	esa0 := esa.AggregateCacheStats()
	cpu0 := cpuTime()
	dsrc.arm(t0.Add(time.Duration(cfg.seconds) * time.Second))
	stats, err := stream.Run(context.Background(), dsrc, opts)
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	esa1 := esa.AggregateCacheStats()
	if err != nil {
		return nil, fmt.Errorf("stream.Run: %w", err)
	}
	if e, ok := onResultErr.Load().(error); ok {
		return nil, e
	}
	if err := journal.Close(); err != nil {
		return nil, err
	}

	apps := int64(stats.Checked + stats.Degraded)
	res.attempted = dsrc.next
	res.failed = res.attempted - apps
	res.e2e = throughput(apps, elapsed, cpu)
	lat, err := latencyMetrics("batch", led.groupLatencies())
	if err != nil {
		return nil, err
	}
	res.e2e = append(res.e2e, lat...)

	// The ledger is benchmark state: keep only the sampled apps the
	// checks need before reading the live heap.
	var sampled []*appTimes
	for _, at := range led.closed {
		if at.out != nil {
			sampled = append(sampled, at)
		}
	}
	var layer []metric
	if cfg.trace {
		tr := newTracer(t0)
		layer = streamLayer(tr, led.closed, stats)
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	led.closed, led.open = nil, nil
	heap := liveHeapMB()
	res.e2e = append(res.e2e, metric{"live_heap_mb", "MB", Stat{Value: heap, N: 1}})

	res.check.compared++
	if int64(stats.Apps) != dsrc.next {
		res.check.failf("stream run accounted %d apps, source handed out %d", stats.Apps, dsrc.next)
	}
	if err := checkJournal(&res.check, journalPath, stats.Apps); err != nil {
		return nil, err
	}
	if err := checkSampled(&res.check, cfg.seed, sampled); err != nil {
		return nil, err
	}
	res.info["apps"] = apps
	res.info["elapsed_s"] = elapsed.Seconds()

	if cfg.trace {
		snap := observer.Snapshot()
		layer = append(layer,
			metric{"core.lib_cache_hit_ratio", "ratio", Ratio{snap.CacheHits, snap.CacheHits + snap.CacheMisses}.Stat()},
			metric{"esa.interpret_hit_ratio", "ratio", Ratio{esa1.Hits - esa0.Hits, esa1.Hits - esa0.Hits + esa1.Misses - esa0.Misses}.Stat()},
		)
		rp, err := replayFirehose(&res.check, cfg.seed, dsrc.next)
		if err != nil {
			return nil, err
		}
		layer = append(layer, rp.metrics()...)
		res.layer = completeLayer(layer, res)
	}
	return res, nil
}

// streamLayer derives the stream-tier per-layer metrics from the
// ledger and the run's counters, and records the ledger as spans.
func streamLayer(tr *tracer, closed []*appTimes, stats stream.Stats) []metric {
	var gen, wait, run, post Samples
	for _, at := range closed {
		id := at.idx + 1
		tr.addOffsets("synth.gen", id, at.ready-at.gen, at.ready)
		tr.addOffsets("stream.queue_wait", id, at.ready, at.runStart)
		tr.addOffsets("core.checksafe", id, at.runStart, at.runEnd)
		tr.addOffsets("stream.post", id, at.runEnd, at.done)
		gen.Add(float64(at.gen) / 1e3)
		wait.Add(float64(at.runStart-at.ready) / 1e3)
		run.Add(float64(at.runEnd-at.runStart) / 1e3)
		post.Add(float64(at.done-at.runEnd) / 1e3)
	}
	p50 := func(s *Samples) Stat { st, _ := s.Percentile(50); return st }
	return []metric{
		{"synth.app_gen_us", "us", gen.Mean()},
		{"stream.queue_wait_us", "us", p50(&wait)},
		{"core.checksafe_us", "us", p50(&run)},
		{"core.checksafe_mean_us", "us", run.Mean()},
		{"stream.post_us", "us", p50(&post)},
		{"stream.journal_fsyncs", "count", Stat{Value: float64(stats.JournalFsyncs), N: stats.JournalRecords}},
		{"stream.backpressure_stalls", "count", Stat{Value: float64(stats.BackpressureStalls), N: int64(stats.Apps)}},
		{"stream.queue_high_water", "count", Stat{Value: float64(stats.QueueHighWater), N: int64(stats.Apps)}},
	}
}
