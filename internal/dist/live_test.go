package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ppchecker/internal/eval"
	"ppchecker/internal/stream"
)

// analyzedReports runs the single-process reference over a firehose
// and returns its stats plus, per app, the report a worker that
// analyzed it would send (lease and worker fields left for the caller).
func analyzedReports(t *testing.T, seed, n int64) (stream.Stats, map[string]ReportRequest) {
	t.Helper()
	var mu sync.Mutex
	reports := map[string]ReportRequest{}
	want, err := stream.Run(context.Background(), stream.NewFirehoseSource(seed, n), stream.Options{
		Workers: 2,
		OnResult: func(r stream.Result) {
			mu.Lock()
			defer mu.Unlock()
			reports[r.Name] = ReportRequest{
				Name: r.Name, Hash: r.Hash,
				Outcome:     r.Outcome.String(),
				Retries:     r.Retries,
				Partial:     r.Report != nil && r.Report.Partial,
				Quarantined: r.Quarantined,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return want, reports
}

// reportUnder addresses an analyzed report to a lease.
func reportUnder(r ReportRequest, leaseID, worker string) ReportRequest {
	r.LeaseID, r.Worker = leaseID, worker
	return r
}

// checkedReport is a report of a clean outcome for a granted lease.
func checkedReport(l *LeaseResponse, worker string) ReportRequest {
	return ReportRequest{
		LeaseID: l.LeaseID, Worker: worker, Name: l.Name, Hash: l.Hash,
		Outcome: eval.OutcomeChecked.String(),
	}
}

func mustLease(t *testing.T, url, worker string) *LeaseResponse {
	t.Helper()
	l, status := postLease(t, url, worker)
	if status != http.StatusOK {
		t.Fatalf("lease for %s: status %d", worker, status)
	}
	return l
}

func wantFolded(t *testing.T, rr ReportResponse, what string) {
	t.Helper()
	if !rr.Accepted || rr.Duplicate {
		t.Fatalf("%s: %+v, want folded", what, rr)
	}
}

func wantDuplicate(t *testing.T, rr ReportResponse, what string) {
	t.Helper()
	if rr.Accepted || !rr.Duplicate {
		t.Fatalf("%s: %+v, want duplicate", what, rr)
	}
}

// TestStaleLeaseIDCannotReleaseLiveLease: lease ids restart at lease-1
// when a new coordinator takes over a journal, so a zombie of the old
// fleet can report under an id the new coordinator has granted for a
// different app. That report must not release the other app's lease,
// or the run finishes while that app is still out.
func TestStaleLeaseIDCannotReleaseLiveLease(t *testing.T) {
	const seed, n = 31, 3
	want, reports := analyzedReports(t, seed, n)
	path := filepath.Join(t.TempDir(), "stale.journal")

	// Coordinator A grants lease-1 (app0) and lease-2 (app1, held by
	// a zombie), folds app0, and dies.
	j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(seed, n), Journal: j, Replay: replay})
	srvA := httptest.NewServer(a.Handler())
	a0 := mustLease(t, srvA.URL, "w")
	a1 := mustLease(t, srvA.URL, "zombie")
	wantFolded(t, postReport(t, srvA.URL, reportUnder(reports[a0.Name], a0.LeaseID, "w")), "app0 at A")
	srvA.Close()
	j.Close()

	// Coordinator B opens the same journal and grants lease-1 (app1)
	// and lease-2 (app2).
	j2, replay2, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	b := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(seed, n), Journal: j2, Replay: replay2})
	srvB := newCoordServer(t, b)
	b1 := mustLease(t, srvB.URL, "w")
	b2 := mustLease(t, srvB.URL, "w")
	if b1.Name != a1.Name || b2.LeaseID != a1.LeaseID || b2.Name == a1.Name {
		t.Fatalf("setup: A granted %s=%s; B granted %s=%s and %s=%s",
			a1.LeaseID, a1.Name, b1.LeaseID, b1.Name, b2.LeaseID, b2.Name)
	}

	// The zombie's stale id neither renews nor releases B's lease-2.
	if rr := postRenew(t, srvB.URL, RenewRequest{LeaseID: a1.LeaseID, Worker: "zombie", Name: a1.Name}); rr.OK {
		t.Fatal("a stale lease id renewed another app's lease")
	}
	// The zombie's app1 report arrives first and wins the fold; B's
	// own app1 report is the duplicate.
	wantFolded(t, postReport(t, srvB.URL, reportUnder(reports[a1.Name], a1.LeaseID, "zombie")), "zombie app1 at B")
	wantDuplicate(t, postReport(t, srvB.URL, reportUnder(reports[b1.Name], b1.LeaseID, "w")), "B's app1")

	if snap := b.StatsSnapshot(); snap.Done || snap.Outstanding != 1 {
		t.Fatalf("app2 still leased, but snapshot is %+v", snap)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	if got, err := b.Wait(ctx); err == nil {
		t.Fatalf("Wait finished with app2 still out: %+v", got.RunStats)
	}
	cancel()

	wantFolded(t, postReport(t, srvB.URL, reportUnder(reports[b2.Name], b2.LeaseID, "w")), "app2 at B")
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("failover run %+v != single-process %+v", got.RunStats, want.RunStats)
	}
}

// TestLiveSetFirstReportWins: the coordinator folds a report only
// while its app is live — pulled from the source and not yet folded.
// Every other report is answered as a duplicate and leaves the stats
// and the journal alone.
func TestLiveSetFirstReportWins(t *testing.T) {
	const ttl = 30 * time.Millisecond
	// expire lets a lease's deadline pass and reclaims it, as the next
	// lease request or Wait tick would.
	expire := func(c *Coordinator) {
		time.Sleep(2 * ttl)
		c.mu.Lock()
		c.sweepLocked(time.Now())
		c.mu.Unlock()
	}
	for _, tc := range []struct {
		name string
		// replayed folds app0 through an earlier coordinator over the
		// same journal before the coordinator under test starts.
		replayed bool
		run      func(t *testing.T, c *Coordinator, url string)
		// Outcomes folded and duplicates answered by the coordinator
		// under test, and records it journaled.
		apps       int
		duplicates int64
		records    int64
	}{
		{
			name: "zombie reports after the survivor",
			run: func(t *testing.T, c *Coordinator, url string) {
				dead := mustLease(t, url, "zombie")
				expire(c)
				live := mustLease(t, url, "survivor")
				wantFolded(t, postReport(t, url, checkedReport(live, "survivor")), "survivor")
				wantDuplicate(t, postReport(t, url, checkedReport(dead, "zombie")), "zombie")
			},
			apps: 1, duplicates: 1, records: 1,
		},
		{
			name: "zombie reports before the survivor",
			run: func(t *testing.T, c *Coordinator, url string) {
				dead := mustLease(t, url, "zombie")
				expire(c)
				live := mustLease(t, url, "survivor")
				wantFolded(t, postReport(t, url, checkedReport(dead, "zombie")), "zombie")
				wantDuplicate(t, postReport(t, url, checkedReport(live, "survivor")), "survivor")
			},
			apps: 1, duplicates: 1, records: 1,
		},
		{
			name: "expired item still pending is folded by the zombie",
			run: func(t *testing.T, c *Coordinator, url string) {
				dead := mustLease(t, url, "zombie")
				expire(c)
				if snap := c.StatsSnapshot(); snap.Pending != 1 {
					t.Fatalf("expired item not requeued: %+v", snap)
				}
				wantFolded(t, postReport(t, url, checkedReport(dead, "zombie")), "zombie")
				if l, status := postLease(t, url, "survivor"); status != http.StatusGone {
					t.Fatalf("folded item re-leased: status %d lease %+v", status, l)
				}
			},
			apps: 1, records: 1,
		},
		{
			name:     "replayed name",
			replayed: true,
			run: func(t *testing.T, c *Coordinator, url string) {
				wantDuplicate(t, postReport(t, url, ReportRequest{
					LeaseID: "lease-1", Worker: "zombie", Name: "com.firehose.app00000000",
					Outcome: eval.OutcomeChecked.String(),
				}), "replayed app0")
			},
			apps: 1, duplicates: 1,
		},
		{
			name: "never-leased name",
			run: func(t *testing.T, c *Coordinator, url string) {
				wantDuplicate(t, postReport(t, url, ReportRequest{
					LeaseID: "lease-1", Worker: "stranger", Name: "com.example.never.leased",
					Outcome: eval.OutcomeChecked.String(),
				}), "never-leased app")
			},
			duplicates: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.journal")
			if tc.replayed {
				j, _, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				prev := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(41, 1), Journal: j})
				srv := httptest.NewServer(prev.Handler())
				wantFolded(t, postReport(t, srv.URL, checkedReport(mustLease(t, srv.URL, "w"), "w")), "app0 before replay")
				srv.Close()
				j.Close()
			}
			j, replay, err := stream.OpenJournal(path, "dist-test", stream.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			c := NewCoordinator(CoordinatorOptions{
				Source:   stream.NewFirehoseSource(41, 1),
				Journal:  j,
				Replay:   replay,
				LeaseTTL: ttl,
			})
			before := c.stats.RunStats
			tc.run(t, c, newCoordServer(t, c).URL)

			snap := c.StatsSnapshot()
			if snap.Apps != tc.apps || snap.Duplicates != tc.duplicates {
				t.Fatalf("apps %d duplicates %d, want %d and %d: %+v", snap.Apps, snap.Duplicates, tc.apps, tc.duplicates, snap)
			}
			if records, _ := j.Stats(); records != tc.records {
				t.Fatalf("journaled %d records, want %d", records, tc.records)
			}
			if tc.records == 0 && c.stats.RunStats != before {
				t.Fatalf("unfolded report changed stats: %+v -> %+v", before, c.stats.RunStats)
			}
		})
	}
}

// TestCoordinatorStateFlat: the coordinator's per-app state holds the
// apps in flight, not the apps folded. After 20 000 folds through one
// coordinator, its maps hold no more than the leased and pending items.
func TestCoordinatorStateFlat(t *testing.T) {
	const apps, maxOut = 20000, 8
	c := NewCoordinator(CoordinatorOptions{Source: stream.NewFirehoseSource(5, 0), MaxOutstanding: maxOut})
	h := c.Handler()
	post := func(path string, req, resp any) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatal(err)
		}
	}
	held := make([]*LeaseResponse, maxOut)
	for i := range held {
		held[i] = new(LeaseResponse)
		post("/lease", LeaseRequest{Worker: "w"}, held[i])
	}
	for folded := 0; folded < apps; folded++ {
		slot := folded % maxOut
		req := checkedReport(held[slot], "w")
		req.Next = true
		var rr ReportResponse
		post("/report", req, &rr)
		if !rr.Accepted || rr.Lease == nil {
			t.Fatalf("report %d: %+v", folded, rr)
		}
		held[slot] = rr.Lease
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Apps != apps {
		t.Fatalf("folded %d apps, want %d", c.stats.Apps, apps)
	}
	if bound := maxOut + len(c.pending); len(c.live) > bound || len(c.outstanding) > bound {
		t.Fatalf("after %d folds: %d live, %d outstanding, want <= %d", apps, len(c.live), len(c.outstanding), bound)
	}
}
