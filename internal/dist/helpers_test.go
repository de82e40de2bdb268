package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppchecker/internal/stream"
)

// newCoordServer mounts a coordinator's handler on a test server that
// is torn down with the test.
func newCoordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// runWorkerAndWait runs one in-process worker concurrently with the
// coordinator's Wait — so the Wait sweep clock is live while the
// worker holds leases, exactly as in a real deployment — and returns
// both sides' final stats.
func runWorkerAndWait(t *testing.T, c *Coordinator, opts WorkerOptions) (WorkerStats, stream.Stats) {
	t.Helper()
	type workerResult struct {
		ws  WorkerStats
		err error
	}
	resC := make(chan workerResult, 1)
	go func() {
		ws, err := RunWorker(context.Background(), opts)
		resC <- workerResult{ws, err}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res := <-resC
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res.ws, got
}

func postRenew(t *testing.T, url string, req RenewRequest) RenewResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/renew", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RenewResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func getStatus(t *testing.T, url string) StatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}
