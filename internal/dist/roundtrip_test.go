package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/stream"
)

// countingTransport counts a worker's POSTs by path and keeps the
// outcome of each report it sends.
type countingTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	posts    map[string]int
	outcomes []string
}

func newCountingTransport() *countingTransport {
	return &countingTransport{
		base:  http.DefaultTransport.(*http.Transport).Clone(),
		posts: map[string]int{},
	}
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		var outcome string
		if req.URL.Path == "/report" && req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				var r ReportRequest
				if json.NewDecoder(body).Decode(&r) == nil {
					outcome = r.Outcome
				}
			}
		}
		c.mu.Lock()
		c.posts[req.URL.Path]++
		if req.URL.Path == "/report" {
			c.outcomes = append(c.outcomes, outcome)
		}
		c.mu.Unlock()
	}
	return c.base.RoundTrip(req)
}

func (c *countingTransport) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.posts[path]
}

// TestReportCarriesNextLease: in steady state a worker makes one round
// trip per app — each report brings its next lease back — and falls
// back to POST /lease only to start and to learn the run is over.
func TestReportCarriesNextLease(t *testing.T) {
	const seed, n = 61, 200
	want := referenceRun(t, seed, n)

	c := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(seed, n)})
	srv := newCoordServer(t, c)
	tr := newCountingTransport()
	_, got := runWorkerAndWait(t, c, WorkerOptions{
		Coordinator: srv.URL,
		Name:        "w",
		Concurrency: 2,
		// Long enough that a goroutine polling at the end sees the
		// other's last report land before it asks again.
		PollInterval: 200 * time.Millisecond,
		Client:       &http.Client{Timeout: 30 * time.Second, Transport: tr},
	})
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("distributed stats %+v != single-process %+v", got.RunStats, want.RunStats)
	}
	if reports, leases := tr.count("/report"), tr.count("/lease"); reports != n || leases > 6 {
		t.Fatalf("%d /report and %d /lease POSTs for %d apps, want %d and <= 6", reports, leases, n, n)
	}
}

// TestStoppingWorkerHandsBackCarriedLease: a worker that reaches its
// MaxApps budget while holding a lease its last report brought back
// returns that lease at once as skipped, so another worker finishes the
// run without waiting out the one-minute TTL.
func TestStoppingWorkerHandsBackCarriedLease(t *testing.T) {
	const seed, n, budget = 62, 12, 3
	want := referenceRun(t, seed, n)

	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(seed, n),
		LeaseTTL: time.Minute,
	})
	srv := newCoordServer(t, c)
	start := time.Now()

	tr := newCountingTransport()
	ws, err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL, Name: "stopper", PollInterval: 5 * time.Millisecond,
		MaxApps: budget,
		Client:  &http.Client{Timeout: 30 * time.Second, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Reported != budget || ws.Leased != budget+1 || tr.count("/lease") != 1 {
		t.Fatalf("stopper: %+v with %d /lease POSTs; want %d reported of %d leased through one /lease",
			ws, tr.count("/lease"), budget, budget+1)
	}
	if len(tr.outcomes) != budget+1 || tr.outcomes[budget] != "skipped" {
		t.Fatalf("stopper sent reports %v, want %d folded then one skipped", tr.outcomes, budget)
	}
	if snap := c.StatsSnapshot(); snap.Outstanding != 0 || snap.Pending != 1 {
		t.Fatalf("handed-back lease not requeued: %+v", snap)
	}

	_, got := runWorkerAndWait(t, c, WorkerOptions{
		Coordinator: srv.URL, Name: "finisher", PollInterval: 5 * time.Millisecond,
	})
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("distributed stats %+v != single-process %+v", got.RunStats, want.RunStats)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("run took %s: the carried lease was not handed back", elapsed)
	}
	if snap := c.StatsSnapshot(); snap.Expired != 0 {
		t.Fatalf("a lease expired: %+v", snap)
	}
}
