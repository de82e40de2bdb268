package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/dist"
	"ppchecker/internal/esa"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/stream"
)

// fleetWorkers is the number of in-process workers, each with one
// analysis slot (the ppstream -worker default).
const fleetWorkers = 2

// coordShards is the ppcoord default number of in-memory shards.
const coordShards = 2

// fleet is a coordinator serving leases on a loopback listener plus
// its workers.
type fleet struct {
	coord    *dist.Coordinator
	srv      *http.Server
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	wstats   []dist.WorkerStats
	werrs    []error
	taps     []*wireTap
	wobs     []*obs.Observer
	journal  *stream.Journal
	jpath    string
	cleanup  func()
	serveErr chan error
}

// startFleet brings up the coordinator and workers and returns once
// every worker has fetched the coordinator's /config.
func startFleet(cfg config, src stream.Source, led *ledger, tr *tracer) (*fleet, error) {
	journal, jpath, cleanup, err := openRunJournal(cfg)
	if err != nil {
		return nil, err
	}
	shards := make([]longi.Store, coordShards)
	for i := range shards {
		shards[i] = longi.NewMemStore(0)
	}
	f := &fleet{journal: journal, jpath: jpath, cleanup: cleanup, serveErr: make(chan error, 1)}
	f.coord = dist.NewCoordinator(dist.CoordinatorOptions{
		Source:   src,
		Journal:  journal,
		Shards:   shards,
		Observer: obs.New(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return nil, err
	}
	f.srv = &http.Server{Handler: &coordTap{next: f.coord.Handler(), led: led, tr: tr}}
	go func() { f.serveErr <- f.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	base := "http://" + ln.Addr().String()
	configured := make(chan struct{}, fleetWorkers)
	f.wstats = make([]dist.WorkerStats, fleetWorkers)
	f.werrs = make([]error, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		// Each worker keeps its own connection pool, as a separate
		// ppstream -worker process would; sharing one would cap both
		// workers at the default two idle connections per host.
		transport := http.DefaultTransport.(*http.Transport).Clone()
		tap := &wireTap{base: transport, tr: tr, configured: configured, leaseAt: map[string]time.Time{}}
		f.taps = append(f.taps, tap)
		o := obs.New()
		f.wobs = append(f.wobs, o)
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.wstats[i], f.werrs[i] = dist.RunWorker(ctx, dist.WorkerOptions{
				Coordinator:    base,
				Name:           fmt.Sprintf("w%d", i),
				Concurrency:    1,
				RenewLeases:    true,
				UseRemoteCache: true,
				PerAppTimeout:  perAppTimeout,
				MaxRetries:     maxRetries,
				RetryBackoff:   retryBackoff,
				RetryJitter:    retryJitter,
				Observer:       o,
				Client:         &http.Client{Timeout: 30 * time.Second, Transport: tap},
			})
		}(i)
	}
	for i := 0; i < fleetWorkers; i++ {
		select {
		case <-configured:
		case err := <-f.serveErr:
			f.stop()
			f.cleanup()
			return nil, fmt.Errorf("coordinator listener: %w", err)
		case <-time.After(30 * time.Second):
			f.stop()
			f.cleanup()
			return nil, errors.New("workers did not fetch /config within 30s")
		}
	}
	return f, nil
}

// stop cancels the workers, waits for them, and closes the listener
// and journal. The journal file stays until cleanup.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	err := f.srv.Close()
	f.journal.Close()
	for _, e := range f.werrs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return fmt.Errorf("worker: %w", e)
		}
	}
	return err
}

// wireTap wraps a worker's HTTP transport: it signals the worker's
// first /config and, when traced, times every round trip by endpoint,
// counts wire bytes, and links each lease to its report.
type wireTap struct {
	base       http.RoundTripper
	tr         *tracer
	configured chan<- struct{}
	once       sync.Once

	mu      sync.Mutex
	leaseAt map[string]time.Time // lease id -> lease response time

	bytes, shardReqs, shardGets, emptyLeases atomic.Int64
}

// endpoint classifies a worker request path.
func endpoint(path string) string {
	switch {
	case strings.HasPrefix(path, "/shard/"):
		return "shard"
	case path == "/lease", path == "/report", path == "/renew", path == "/config":
		return path[1:]
	}
	return "other"
}

// leaseSeq parses the sequence number out of a "lease-<n>" id.
func leaseSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "lease-"), 10, 64)
	return n
}

func (t *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := endpoint(req.URL.Path)
	if t.tr == nil {
		resp, err := t.base.RoundTrip(req)
		if kind == "config" && err == nil {
			t.once.Do(func() { t.configured <- struct{}{} })
		}
		return resp, err
	}

	var leaseID string
	if kind == "report" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var r struct {
				LeaseID string `json:"lease_id"`
			}
			_ = json.NewDecoder(body).Decode(&r) // a malformed body is the program's to reject
			leaseID = r.LeaseID
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	t.bytes.Add(max(req.ContentLength, 0) + int64(len(b)))

	switch kind {
	case "config":
		t.once.Do(func() { t.configured <- struct{}{} })
	case "shard":
		t.shardReqs.Add(1)
		if req.Method == http.MethodGet {
			t.shardGets.Add(1)
		}
		t.tr.add("dist.shard_rtt", 0, start, end)
	case "lease":
		if resp.StatusCode == http.StatusNoContent {
			t.emptyLeases.Add(1)
		}
		var id int64
		if resp.StatusCode == http.StatusOK {
			var l dist.LeaseResponse
			if json.Unmarshal(b, &l) == nil {
				id = leaseSeq(l.LeaseID)
				t.mu.Lock()
				t.leaseAt[l.LeaseID] = end
				t.mu.Unlock()
			}
		}
		t.tr.add("dist.lease_rtt", id, start, end)
	case "report":
		t.mu.Lock()
		leased, ok := t.leaseAt[leaseID]
		delete(t.leaseAt, leaseID)
		t.mu.Unlock()
		if ok {
			t.tr.add("dist.analyze", leaseSeq(leaseID), leased, start)
		}
		t.tr.add("dist.report_rtt", leaseSeq(leaseID), start, end)
	case "renew":
		t.tr.add("dist.renew_rtt", 0, start, end)
	}
	return resp, nil
}

// coordTap wraps the coordinator's handler: it marks each reported
// app complete once its report is folded and, when traced, times the
// lease and report handlers.
type coordTap struct {
	next http.Handler
	led  *ledger
	tr   *tracer
}

func (m *coordTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/report":
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
		var rep dist.ReportRequest
		_ = json.Unmarshal(b, &rep) // the handler below rejects a malformed body
		start := time.Now()
		m.next.ServeHTTP(w, r)
		end := time.Now()
		if m.led != nil {
			m.led.finish(rep.Name)
		}
		m.tr.add("dist.report_server", leaseSeq(rep.LeaseID), start, end)
	case "/lease":
		start := time.Now()
		m.next.ServeHTTP(w, r)
		m.tr.add("dist.lease_server", 0, start, time.Now())
	default:
		m.next.ServeHTTP(w, r)
	}
}

// setupDist: coordinator, shards, listener, and both workers' first
// /config. The source is already past its deadline, so the fleet
// finishes at once.
func setupDist(cfg config) (time.Duration, error) {
	src := &deadlineSource{src: stream.NewFirehoseSource(cfg.seed, 0), led: newLedger(time.Now())}
	src.arm(time.Now())
	start := time.Now()
	f, err := startFleet(cfg, src, nil, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	defer f.cleanup()
	return d, f.stop()
}

func runDist(cfg config) (*runResult, error) {
	src := stream.NewFirehoseSource(cfg.seed, 0)
	origin := time.Now()
	led := newLedger(origin)
	dsrc := &deadlineSource{src: src, led: led}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(origin)
	}

	setupStart := time.Now()
	f, err := startFleet(cfg, dsrc, led, tr)
	if err != nil {
		return nil, err
	}
	defer f.cleanup()
	res := &runResult{setup: time.Since(setupStart), info: map[string]any{}}

	esa0 := esa.AggregateCacheStats()
	cpu0 := cpuTime()
	t0 := time.Now()
	dsrc.arm(t0.Add(time.Duration(cfg.seconds) * time.Second))
	stats, waitErr := f.coord.Wait(context.Background())
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	esa1 := esa.AggregateCacheStats()
	snap := f.coord.StatsSnapshot()
	if waitErr != nil {
		f.stop()
		return nil, fmt.Errorf("coordinator: %w", waitErr)
	}
	f.cancel()
	f.wg.Wait()

	apps := int64(stats.Checked + stats.Degraded)
	res.attempted = dsrc.next
	res.failed = res.attempted - apps
	res.e2e = throughput(apps, elapsed, cpu)
	lat, err := latencyMetrics("batch", led.groupLatencies())
	if err != nil {
		f.stop()
		return nil, err
	}
	res.e2e = append(res.e2e, lat...)
	gen := genMean(led.closed)
	led.closed, led.open = nil, nil
	// The coordinator, its shards and journal are still live: they are
	// the long-lived side of the fleet.
	res.e2e = append(res.e2e, metric{"live_heap_mb", "MB", Stat{Value: liveHeapMB(), N: 1}})
	if err := f.stop(); err != nil {
		return nil, err
	}

	// The fleet must fold exactly what one process computes over the
	// same apps, and journal each app once.
	ref, err := stream.Run(context.Background(), stream.NewFirehoseSource(cfg.seed, dsrc.next), stream.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference stream.Run: %w", err)
	}
	res.check.compareRunStats("dist run", ref.RunStats, stats.RunStats)
	if err := checkJournal(&res.check, f.jpath, int(dsrc.next)); err != nil {
		return nil, err
	}
	res.info["apps"] = apps
	res.info["elapsed_s"] = elapsed.Seconds()
	res.info["leases_granted"] = snap.Granted

	if cfg.trace {
		res.layer = append(distLayer(f, tr, stats, snap, esa0, esa1), metric{"synth.app_gen_us", "us", gen})
		rp, err := replayFirehose(&res.check, cfg.seed, dsrc.next)
		if err != nil {
			return nil, err
		}
		res.layer = append(res.layer, rp.metrics()...)
		res.layer = completeLayer(res.layer, res)
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// distLayer derives the fleet's per-layer metrics from the taps, the
// worker and coordinator stats, and the spans.
func distLayer(f *fleet, tr *tracer, stats stream.Stats, snap dist.StatsResponse, esa0, esa1 esa.CacheStats) []metric {
	apps := int64(stats.Apps)
	var ms []metric
	for _, name := range []string{"lease", "report", "renew", "shard"} {
		s := tr.durations("dist." + name + "_rtt")
		p50, _ := s.Percentile(50)
		p99, _ := s.Percentile(99)
		ms = append(ms,
			metric{"dist." + name + "_rtt_us_p50", "us", p50},
			metric{"dist." + name + "_rtt_us_p99", "us", p99},
			metric{"dist." + name + "_rtt_count", "count", Stat{Value: float64(s.N()), N: apps}},
		)
	}
	for _, name := range []string{"lease_server", "report_server", "analyze"} {
		p50, _ := tr.durations("dist." + name).Percentile(50)
		ms = append(ms, metric{"dist." + name + "_us", "us", p50})
	}
	var wire, shardReqs, shardGets, empty, remoteHits int64
	for i, t := range f.taps {
		wire += t.bytes.Load()
		shardReqs += t.shardReqs.Load()
		shardGets += t.shardGets.Load()
		empty += t.emptyLeases.Load()
		remoteHits += f.wstats[i].RemoteHits
	}
	remoteHits += esa1.RemoteHits - esa0.RemoteHits
	var hits, misses int64
	for _, o := range f.wobs {
		s := o.Snapshot()
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	perApp := func(n int64) Stat { return Stat{Value: float64(n) / float64(max(apps, 1)), N: apps} }
	ms = append(ms,
		metric{"dist.wire_bytes_per_app", "bytes", perApp(wire)},
		metric{"dist.shard_requests_per_app", "count", perApp(shardReqs)},
		metric{"dist.empty_leases", "count", Stat{Value: float64(empty), N: snap.Granted}},
		metric{"dist.remote_hit_ratio", "ratio", Ratio{remoteHits, shardGets}.Stat()},
		metric{"dist.useful_lease_ratio", "ratio", Ratio{apps, snap.Granted}.Stat()},
		metric{"core.lib_cache_hit_ratio", "ratio", Ratio{hits, hits + misses}.Stat()},
		metric{"esa.interpret_hit_ratio", "ratio", Ratio{esa1.Hits - esa0.Hits, esa1.Hits - esa0.Hits + esa1.Misses - esa0.Misses}.Stat()},
	)
	return ms
}
