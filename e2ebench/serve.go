package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/esa"
	"ppchecker/internal/eval"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// historyVersions is the length of each /check-history chain; with
// groupSize apps per /check-batch, the two clients keep 4 + 4 = 8 apps
// admitted, exactly the default queue bound (4 x GOMAXPROCS on two
// cores), so admission never rejects by construction.
const historyVersions = 4

// chunkRequests is how many request bodies per client are encoded
// ahead of each timed segment. Bodies are encoded outside the timed
// phase; chunking bounds the memory they hold.
const chunkRequests = 64

// sampleRequestEvery picks the requests whose responses are checked
// against local CheckSafe reports.
const sampleRequestEvery = 16

// serveLongiEntries is the server's default artifact-store bound
// (serve.Options.LongiCacheEntries), which the longi replay mirrors.
const serveLongiEntries = 4096

// serveRequest is one pre-encoded request.
type serveRequest struct {
	idx  int64 // history chain index or batch index
	apps int
	body []byte
}

// wireApp turns a generated app into its /check wire form.
func wireApp(app *core.App) (serve.CheckRequest, error) {
	req := serve.CheckRequest{
		Name:        app.Name,
		PolicyHTML:  app.PolicyHTML,
		Description: app.Description,
		LibPolicies: app.LibPolicies,
	}
	if app.APK != nil {
		raw, err := apk.Encode(app.APK)
		if err != nil {
			return req, err
		}
		req.APKBase64 = base64.StdEncoding.EncodeToString(raw)
	}
	return req, nil
}

// serveInputs generates the two clients' request streams.
type serveInputs struct {
	vf      *synth.VersionedFirehose
	fh      *synth.Firehose
	gen     Samples // µs per generated app
	genTime bool
}

func newServeInputs(seed int64, timeGen bool) *serveInputs {
	return &serveInputs{vf: synth.NewVersionedFirehose(seed, historyVersions), fh: synth.NewFirehose(seed), genTime: timeGen}
}

func (in *serveInputs) history(i int64) (serveRequest, error) {
	t := time.Now()
	h, err := in.vf.History(i)
	if err != nil {
		return serveRequest{}, err
	}
	if in.genTime {
		in.gen.Add(float64(time.Since(t)) / 1e3 / historyVersions)
	}
	req := serve.HistoryRequest{Name: h.Pkg}
	for _, v := range h.Versions {
		w, err := wireApp(v.App)
		if err != nil {
			return serveRequest{}, err
		}
		req.Versions = append(req.Versions, w)
	}
	b, err := json.Marshal(req)
	return serveRequest{idx: i, apps: historyVersions, body: b}, err
}

// batchApps are the firehose apps of batch request i.
func (in *serveInputs) batchApps(i int64) ([]*core.App, error) {
	var apps []*core.App
	for k := int64(0); k < groupSize; k++ {
		t := time.Now()
		ga, err := in.fh.App(i*groupSize + k)
		if err != nil {
			return nil, err
		}
		if in.genTime {
			in.gen.Add(float64(time.Since(t)) / 1e3)
		}
		apps = append(apps, ga.App)
	}
	return apps, nil
}

func (in *serveInputs) batch(i int64) (serveRequest, error) {
	apps, err := in.batchApps(i)
	if err != nil {
		return serveRequest{}, err
	}
	var req serve.BatchRequest
	for _, app := range apps {
		w, err := wireApp(app)
		if err != nil {
			return serveRequest{}, err
		}
		req.Apps = append(req.Apps, w)
	}
	b, err := json.Marshal(req)
	return serveRequest{idx: i, apps: groupSize, body: b}, err
}

// client is one closed-loop caller: it sends its next request only
// after the previous response is read.
type client struct {
	url  string
	http *http.Client
	buf  bytes.Buffer

	rtt                   Samples // ms
	completed, failed     int64
	reqBytes, respBytes   int64
	transportErrs, non200 int64
	sampled               map[int64][]appDigest // request idx -> per-app outputs
	tr                    *tracer
	span                  string
}

// do sends one request and accounts its response.
func (c *client) do(r serveRequest) error {
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		c.transportErrs++
		c.failed += int64(r.apps)
		return nil
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.rtt.Add(float64(end.Sub(start)) / 1e6)
	c.tr.add(c.span, r.idx, start, end)
	c.reqBytes += int64(len(r.body))
	c.respBytes += int64(c.buf.Len())
	if err != nil || resp.StatusCode != http.StatusOK {
		c.non200++
		c.failed += int64(r.apps)
		return nil
	}
	var counts struct {
		Stats serve.BatchStats `json:"stats"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &counts); err != nil {
		return fmt.Errorf("%s: decode response: %w", c.url, err)
	}
	c.completed += int64(counts.Stats.Checked + counts.Stats.Degraded)
	c.failed += int64(r.apps - counts.Stats.Checked - counts.Stats.Degraded)
	if r.idx%sampleRequestEvery == 0 {
		d, err := responseDigests(c.buf.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", c.url, err)
		}
		c.sampled[r.idx] = d
	}
	return nil
}

// responseDigests reduces a /check-batch or /check-history response to
// its per-app outputs, in request order.
func responseDigests(body []byte) ([]appDigest, error) {
	var resp struct {
		Apps     []serve.CheckResponse `json:"apps"`
		Versions []serve.CheckResponse `json:"versions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	var out []appDigest
	for _, r := range append(resp.Apps, resp.Versions...) {
		doc, err := canonicalDoc(r.Report)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		out = append(out, appOutput{Outcome: r.Outcome, Doc: doc}.digest())
	}
	return out, nil
}

// serveOptions are the ppserve -longi defaults.
func serveOptions() serve.Options {
	return serve.Options{
		PerAppTimeout: perAppTimeout,
		MaxRetries:    maxRetries,
		RetryBackoff:  retryBackoff,
		Observer:      obs.New(),
		Longi:         &longi.Config{},
	}
}

// startServer starts a server on loopback and returns once /healthz
// answers 200.
func startServer() (*serve.Server, string, error) {
	srv := serve.New(serveOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv.Start(ln)
	base := "http://" + srv.Addr()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, base, nil
			}
		}
		if time.Now().After(deadline) {
			srv.Shutdown(context.Background())
			return nil, "", errors.New("server not healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// setupServe: Start and the first /healthz 200.
func setupServe(cfg config) (time.Duration, error) {
	start := time.Now()
	srv, _, err := startServer()
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, srv.Shutdown(context.Background())
}

func runServe(cfg config) (*runResult, error) {
	in := newServeInputs(cfg.seed, cfg.trace)
	setupStart := time.Now()
	srv, base, err := startServer()
	if err != nil {
		return nil, err
	}
	res := &runResult{setup: time.Since(setupStart), info: map[string]any{}}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now())
	}
	newClient := func(path, span string) *client {
		return &client{url: base + path, http: &http.Client{Timeout: 60 * time.Second},
			sampled: map[int64][]appDigest{}, tr: tr, span: span}
	}
	hist, batch := newClient("/check-history", "serve.history_rtt"), newClient("/check-batch", "serve.batch_rtt")
	var histQ, batchQ []serveRequest
	var nextHist, nextBatch int64
	var decode Samples // µs per request, traced only

	limit := time.Duration(cfg.seconds) * time.Second
	var elapsed, cpu time.Duration
	esa0 := esa.AggregateCacheStats()
	for elapsed < limit {
		for len(histQ) < chunkRequests {
			r, err := in.history(nextHist)
			if err != nil {
				return nil, err
			}
			histQ = append(histQ, r)
			nextHist++
		}
		for len(batchQ) < chunkRequests {
			r, err := in.batch(nextBatch)
			if err != nil {
				return nil, err
			}
			batchQ = append(batchQ, r)
			nextBatch++
		}

		// One timed segment: both clients run until either exhausts its
		// chunk or the phase's time is up.
		var stop atomic.Bool
		var wg sync.WaitGroup
		var used [2]int
		var errs [2]error
		segStart := time.Now()
		cpu0 := cpuTime()
		for k, pair := range []struct {
			c *client
			q []serveRequest
		}{{hist, histQ}, {batch, batchQ}} {
			wg.Add(1)
			go func(k int, c *client, q []serveRequest) {
				defer wg.Done()
				for used[k] < len(q) && !stop.Load() {
					if elapsed+time.Since(segStart) >= limit {
						break
					}
					if errs[k] = c.do(q[used[k]]); errs[k] != nil {
						break
					}
					used[k]++
				}
				stop.Store(true)
			}(k, pair.c, pair.q)
		}
		wg.Wait()
		elapsed += time.Since(segStart)
		cpu += cpuTime() - cpu0
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		if cfg.trace {
			if err := timeDecode(&decode, histQ[:used[0]], batchQ[:used[1]]); err != nil {
				return nil, err
			}
		}
		histQ, batchQ = histQ[used[0]:], batchQ[used[1]:]
	}
	esa1 := esa.AggregateCacheStats()
	sentHist, sentBatch := nextHist-int64(len(histQ)), nextBatch-int64(len(batchQ))
	histQ, batchQ = nil, nil

	apps := hist.completed + batch.completed
	res.attempted = apps + hist.failed + batch.failed
	res.failed = hist.failed + batch.failed
	res.e2e = throughput(apps, elapsed, cpu)
	lat, err := latencyMetrics("batch", &batch.rtt)
	if err != nil {
		return nil, err
	}
	res.e2e = append(res.e2e, lat...)
	hlat, err := latencyMetrics("history", &hist.rtt)
	if err != nil {
		return nil, err
	}
	res.e2e = append(res.e2e, metric{"live_heap_mb", "MB", Stat{Value: liveHeapMB(), N: 1}})
	snap := srv.Metrics()
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	for _, m := range hlat {
		res.info[m.Name] = m.Value
	}
	res.info["transport_errors"] = hist.transportErrs + batch.transportErrs
	res.info["non_200"] = hist.non200 + batch.non200
	res.info["history_requests"] = hist.rtt.N()
	res.info["batch_requests"] = batch.rtt.N()
	res.info["elapsed_s"] = elapsed.Seconds()
	res.info["apps"] = apps

	if err := checkServe(&res.check, in, hist.sampled, batch.sampled); err != nil {
		return nil, err
	}

	if cfg.trace {
		counter := func(name string) int64 {
			for _, c := range snap.Counters {
				if c.Name == name {
					return c.Value
				}
			}
			return 0
		}
		lh, lm := counter("longi-artifact-hits"), counter("longi-artifact-misses")
		perApp := func(n int64) Stat { return Stat{Value: float64(n) / float64(max(apps, 1)), N: apps} }
		decodeP50, _ := decode.Percentile(50)
		layer := append(hlat,
			metric{"synth.app_gen_us", "us", in.gen.Mean()},
			metric{"serve.decode_us", "us", decodeP50},
			metric{"serve.request_bytes_per_app", "bytes", perApp(hist.reqBytes + batch.reqBytes)},
			metric{"serve.response_bytes_per_app", "bytes", perApp(hist.respBytes + batch.respBytes)},
			metric{"serve.rejected", "count", Stat{Value: float64(counter("serve-requests-rejected")), N: int64(hist.rtt.N() + batch.rtt.N())}},
			metric{"longi.artifact_hit_ratio", "ratio", Ratio{lh, lh + lm}.Stat()},
			metric{"core.lib_cache_hit_ratio", "ratio", Ratio{snap.CacheHits, snap.CacheHits + snap.CacheMisses}.Stat()},
			metric{"esa.interpret_hit_ratio", "ratio", Ratio{esa1.Hits - esa0.Hits, esa1.Hits - esa0.Hits + esa1.Misses - esa0.Misses}.Stat()},
		)
		rl, err := replayServe(&res.check, cfg.seed, sentHist, sentBatch)
		if err != nil {
			return nil, err
		}
		res.layer = completeLayer(append(layer, rl...), res)
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeDecode times the server's request decoding on the bodies just
// sent: json.Unmarshal into the wire type plus CheckRequest.App for
// every app.
func timeDecode(s *Samples, hist, batch []serveRequest) error {
	for _, r := range hist {
		t := time.Now()
		var req serve.HistoryRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		for i := range req.Versions {
			if _, err := req.Versions[i].App(); err != nil {
				return err
			}
		}
		s.Add(float64(time.Since(t)) / 1e3)
	}
	for _, r := range batch {
		t := time.Now()
		var req serve.BatchRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		for i := range req.Apps {
			if _, err := req.Apps[i].App(); err != nil {
				return err
			}
		}
		s.Add(float64(time.Since(t)) / 1e3)
	}
	return nil
}

// checkServe compares the sampled responses' per-app outputs with
// local CheckSafe reports on the same generated apps.
func checkServe(check *outputCheck, in *serveInputs, hist, batch map[int64][]appDigest) error {
	ref := core.NewChecker()
	compare := func(what string, apps []*core.App, got []appDigest) error {
		if len(got) != len(apps) {
			check.failf("%s: %d apps in response, %d sent", what, len(got), len(apps))
			return nil
		}
		for k, app := range apps {
			want, err := referenceOutput(ref, app)
			if err != nil {
				return err
			}
			check.compareApp(fmt.Sprintf("%s app %d", what, k), want, got[k])
		}
		return nil
	}
	for idx, got := range hist {
		h, err := in.vf.History(idx)
		if err != nil {
			return err
		}
		var apps []*core.App
		for _, v := range h.Versions {
			app := *v.App
			app.Name = h.Pkg // the server names every version after the chain
			apps = append(apps, &app)
		}
		if err := compare(fmt.Sprintf("history %d", idx), apps, got); err != nil {
			return err
		}
	}
	for idx, got := range batch {
		apps, err := in.batchApps(idx)
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("batch %d", idx), apps, got); err != nil {
			return err
		}
	}
	return nil
}

// replayServe replays the apps the clients sent, a history chain and a
// batch at a time as the two clients sent them, up to replayApps apps:
// every chain version through a longi engine on a store of the
// server's size (versions with and without artifact hits timed apart),
// and every app stage by stage.
func replayServe(check *outputCheck, seed int64, chains, batches int64) ([]metric, error) {
	in := newServeInputs(seed, false)
	cfg := longi.Config{}
	eng := longi.NewEngine(longi.NewMemStore(serveLongiEntries), cfg)
	checker := core.NewChecker(cfg.CheckerOptions()...)
	var hit, miss Samples
	rp := newStageReplay(check)
	seq := 0
	for i := int64(0); seq < replayApps && (i < chains || i < batches); i++ {
		if i < chains {
			h, err := in.vf.History(i)
			if err != nil {
				return nil, err
			}
			for _, v := range h.Versions {
				app := *v.App
				app.Name = h.Pkg
				before := eng.Stats().Hits
				t := time.Now()
				rep, err := eng.CheckVersion(context.Background(), checker, &app)
				d := float64(time.Since(t)) / 1e3
				if err != nil {
					return nil, err
				}
				if eng.Stats().Hits > before {
					hit.Add(d)
				} else {
					miss.Add(d)
				}
				if seq%verifyEvery == 0 {
					got, err := outputOf(rep, eval.OutcomeChecked)
					if err != nil {
						return nil, err
					}
					want, err := referenceOutput(rp.ref, &app)
					if err != nil {
						return nil, err
					}
					check.compareApp(fmt.Sprintf("longi replay of chain %d", i), want, got.digest())
				}
				if err := rp.run(seq, &app); err != nil {
					return nil, err
				}
				seq++
			}
		}
		if i < batches {
			apps, err := in.batchApps(i)
			if err != nil {
				return nil, err
			}
			for _, app := range apps {
				if err := rp.run(seq, app); err != nil {
					return nil, err
				}
				seq++
			}
		}
	}
	return append(rp.metrics(),
		metric{"longi.check_version_hit_us", "us", hit.Mean()},
		metric{"longi.check_version_miss_us", "us", miss.Mean()},
	), nil
}
