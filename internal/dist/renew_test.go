package dist

import (
	"context"
	"testing"
	"time"

	"ppchecker/internal/stream"
)

// TestExpiryTickDerivation pins the sweep-clock contract: the tick is
// the renewal interval (TTL/3) clamped to [25ms, 1s]. The floor keeps
// tiny-TTL tests from spinning the sweeper hot; the cap bounds expiry
// latency under production-sized TTLs (the old TTL/2 clock would have
// swept a 30s lease every 15s).
func TestExpiryTickDerivation(t *testing.T) {
	cases := []struct {
		ttl, want time.Duration
	}{
		{30 * time.Millisecond, minExpiryTick},           // TTL/3 = 10ms, floored
		{75 * time.Millisecond, minExpiryTick},           // TTL/3 = 25ms, at the floor
		{300 * time.Millisecond, 100 * time.Millisecond}, // TTL/3, unclamped
		{900 * time.Millisecond, 300 * time.Millisecond}, // TTL/3, unclamped
		{30 * time.Second, maxExpiryTick},                // TTL/3 = 10s, capped
	}
	for _, c := range cases {
		if got := expiryTick(c.ttl); got != c.want {
			t.Errorf("expiryTick(%s) = %s, want %s", c.ttl, got, c.want)
		}
	}
	if got := renewInterval(30 * time.Second); got != 10*time.Second {
		t.Errorf("renewInterval(30s) = %s, want 10s", got)
	}
	if got := renewInterval(0); got != time.Millisecond {
		t.Errorf("renewInterval(0) = %s, want 1ms", got)
	}
}

// TestRenewalKeepsSlowAppAlive: with renewal on, an analysis that takes
// three times the lease TTL finishes under its original lease — no
// expiry, no reassignment — and the run is still bit-identical to the
// single-process reference. The TTL is a failure detector, not a
// per-app latency bound.
func TestRenewalKeepsSlowAppAlive(t *testing.T) {
	const seed, n = 91, 2
	want := referenceRun(t, seed, n)

	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(seed, n),
		LeaseTTL: 400 * time.Millisecond,
	})
	srv := newCoordServer(t, c)

	// Wait runs concurrently with the worker so its sweep clock is
	// live — exactly the clock that would reclaim the lease if the
	// heartbeats did not keep moving the deadline.
	ws, got := runWorkerAndWait(t, c, WorkerOptions{
		Coordinator:  srv.URL,
		Name:         "slow-but-alive",
		Concurrency:  1,
		PollInterval: 5 * time.Millisecond,
		PerAppDelay:  1200 * time.Millisecond, // 3x the TTL
		RenewLeases:  true,
	})
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("renewed run %+v != reference %+v", got.RunStats, want.RunStats)
	}
	snap := c.StatsSnapshot()
	if snap.Expired != 0 {
		t.Fatalf("renewal failed to keep the lease alive: %d expired", snap.Expired)
	}
	// 1.2s of analysis at a ~133ms heartbeat: well over one renewal per
	// app, on both sides of the protocol.
	if snap.Renewals < 2 || ws.Renewals < 2 {
		t.Fatalf("too few heartbeats: coordinator %d, worker %d", snap.Renewals, ws.Renewals)
	}
	if ws.RenewalsLost != 0 {
		t.Fatalf("worker lost %d leases mid-app", ws.RenewalsLost)
	}
}

// TestNoRenewalReassignsSlowApp: with renewal off (the default), a
// lease must outlive the whole analysis — a slow app past the TTL is
// reclaimed and counted expired. This test fails if renewal ever
// becomes unconditional: heartbeats would keep the lease alive and
// Expired would stay zero.
func TestNoRenewalReassignsSlowApp(t *testing.T) {
	const seed, n = 92, 1
	want := referenceRun(t, seed, n)

	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(seed, n),
		LeaseTTL: 150 * time.Millisecond,
	})
	srv := newCoordServer(t, c)

	ws, got := runWorkerAndWait(t, c, WorkerOptions{
		Coordinator:  srv.URL,
		Name:         "slow-and-silent",
		Concurrency:  1,
		PollInterval: 5 * time.Millisecond,
		PerAppDelay:  500 * time.Millisecond, // blows well past the TTL
		// RenewLeases deliberately false.
	})
	// First-report-wins still folds the late report exactly once.
	if bareStats(got.RunStats) != bareStats(want.RunStats) {
		t.Fatalf("expired run %+v != reference %+v", got.RunStats, want.RunStats)
	}
	snap := c.StatsSnapshot()
	if snap.Expired < 1 {
		t.Fatal("silent worker's lease never expired — is renewal unconditionally on?")
	}
	if snap.Renewals != 0 || ws.Renewals != 0 {
		t.Fatalf("renewal traffic with RenewLeases off: coordinator %d, worker %d",
			snap.Renewals, ws.Renewals)
	}
}

// TestLateRenewalCannotReviveExpiredLease: a heartbeat arriving after
// the deadline must be denied — by then the item may already be
// reassigned, and reviving the old lease ID would double-track it.
func TestLateRenewalCannotReviveExpiredLease(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(93, 1),
		LeaseTTL: 40 * time.Millisecond,
	})
	srv := newCoordServer(t, c)

	lease, status := postLease(t, srv.URL, "latecomer")
	if status != 200 {
		t.Fatalf("lease: status %d", status)
	}
	time.Sleep(80 * time.Millisecond) // past the deadline

	resp := postRenew(t, srv.URL, RenewRequest{LeaseID: lease.LeaseID, Worker: "latecomer", Name: lease.Name})
	if resp.OK {
		t.Fatal("late renewal revived an expired lease")
	}
	snap := c.StatsSnapshot()
	if snap.Expired != 1 || snap.RenewalsDenied != 1 || snap.Renewals != 0 {
		t.Fatalf("snapshot after late renewal: %+v", snap)
	}
	// The item is reclaimed, not lost.
	if again, status := postLease(t, srv.URL, "fresh"); status != 200 || again.Name != lease.Name {
		t.Fatalf("expired item not re-leasable: status %d lease %+v", status, again)
	}
}

// TestRenewalExtendsDeadline: heartbeats actually move the deadline —
// a lease renewed just before each expiry survives several TTL windows
// and is still renewable at the end.
func TestRenewalExtendsDeadline(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(94, 1),
		LeaseTTL: 120 * time.Millisecond,
	})
	srv := newCoordServer(t, c)

	lease, _ := postLease(t, srv.URL, "heartbeater")
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond) // half a TTL: inside the window
		if resp := postRenew(t, srv.URL, RenewRequest{LeaseID: lease.LeaseID, Worker: "heartbeater", Name: lease.Name}); !resp.OK {
			t.Fatalf("renewal %d denied", i)
		}
	}
	// 300ms of wall clock across a 120ms TTL: only renewal kept it.
	snap := c.StatsSnapshot()
	if snap.Expired != 0 || snap.Renewals != 5 {
		t.Fatalf("snapshot after heartbeats: %+v", snap)
	}
}

// TestExpiryLatencyBounded: with zero lease traffic, Wait's sweep
// clock alone must reclaim an expired lease promptly — within a few
// ticks of the deadline, not a TTL multiple later.
func TestExpiryLatencyBounded(t *testing.T) {
	const ttl = 250 * time.Millisecond
	c := NewCoordinator(CoordinatorOptions{
		Source:   stream.NewFirehoseSource(95, 1),
		LeaseTTL: ttl,
	})
	srv := newCoordServer(t, c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waitDone := make(chan struct{})
	go func() { // the only sweeper: StatsSnapshot below never sweeps
		defer close(waitDone)
		c.Wait(ctx)
	}()

	start := time.Now()
	if _, status := postLease(t, srv.URL, "doomed"); status != 200 {
		t.Fatalf("lease: status %d", status)
	}
	var elapsed time.Duration
	for {
		if c.StatsSnapshot().Expired >= 1 {
			elapsed = time.Since(start)
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("lease never expired under the Wait sweep clock")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-waitDone

	if elapsed < ttl {
		t.Fatalf("expired after %s, before the %s TTL", elapsed, ttl)
	}
	// Deadline + a generous handful of sweep ticks (tick = TTL/3 ≈
	// 83ms). The old TTL/2 clock passed this too; the regression this
	// pins is a sweep period decoupled from (or much larger than) the
	// renewal interval.
	if limit := ttl + 8*expiryTick(ttl); elapsed > limit {
		t.Fatalf("expiry took %s, want <= %s (sweep clock too slow)", elapsed, limit)
	}
}
