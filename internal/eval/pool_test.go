package eval

import (
	"context"
	"errors"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/policy"
)

// TestPoolWorkerCheck drives Worker.Check through every outcome and the
// quarantine path, asserting the AppResult fields, how many attempts
// ran, and what the run span recorded in the observer.
func TestPoolWorkerCheck(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	clean := func(name string) *core.Report { return &core.Report{App: name, Policy: &policy.Analysis{}} }
	partial := func(name string) *core.Report {
		r := clean(name)
		r.AddDegraded(&core.StageError{Stage: core.StageStatic, App: name, Err: errors.New("stage blew up")})
		return r
	}
	for _, tc := range []struct {
		name        string
		ctx         context.Context
		quarantined bool
		// run's result on every attempt.
		rep *core.Report
		err error

		outcome      Outcome
		attempts     int
		exhausted    bool
		partial      bool
		runErrors    int64
		stubAttached bool
	}{
		{name: "checked", rep: clean("checked"), outcome: OutcomeChecked, attempts: 1},
		{name: "degraded", rep: partial("degraded"), outcome: OutcomeDegraded, attempts: 1, partial: true},
		{name: "failed", err: errors.New("boom"), outcome: OutcomeFailed, attempts: 3,
			exhausted: true, partial: true, runErrors: 1, stubAttached: true},
		{name: "skipped", ctx: canceled, err: context.Canceled, outcome: OutcomeSkipped, attempts: 1,
			partial: true, runErrors: 1, stubAttached: true},
		{name: "quarantined", quarantined: true, err: errors.New("boom"), outcome: OutcomeFailed, attempts: 1,
			partial: true, runErrors: 1, stubAttached: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			o := obs.New()
			pool := NewPool(nil, nil, o, AttemptOptions{MaxRetries: 2})
			attempts := 0
			var got AppResult
			pool.Run(1, func(w *Worker) {
				got = w.Check(ctx, tc.name, func(context.Context, *core.Checker) (*core.Report, error) {
					attempts++
					return tc.rep, tc.err
				}, tc.quarantined)
			})
			wantRetries := tc.attempts - 1
			if got.Outcome != tc.outcome || got.Retries != wantRetries || got.Exhausted != tc.exhausted ||
				got.Quarantined != tc.quarantined {
				t.Fatalf("AppResult = {Outcome:%v Retries:%d Exhausted:%v Quarantined:%v}, want {%v %d %v %v}",
					got.Outcome, got.Retries, got.Exhausted, got.Quarantined,
					tc.outcome, wantRetries, tc.exhausted, tc.quarantined)
			}
			if attempts != tc.attempts {
				t.Fatalf("attempts = %d, want %d", attempts, tc.attempts)
			}
			if got.Report == nil || got.Report.App != tc.name || got.Report.Partial != tc.partial {
				t.Fatalf("report = %+v, want app %s partial %v", got.Report, tc.name, tc.partial)
			}
			if got.Report.DegradedStage(core.StageRun) != tc.stubAttached {
				t.Fatalf("StageRun degradation = %v, want %v", !tc.stubAttached, tc.stubAttached)
			}
			run, ok := o.Snapshot().Stage(string(core.StageRun))
			if !ok || run.Runs != 1 || run.Errors != tc.runErrors {
				t.Fatalf("run stage = %+v (present %v), want 1 run, %d errors", run, ok, tc.runErrors)
			}
		})
	}

	// A nil observer records nothing and still checks.
	pool := NewPool(nil, nil, nil, AttemptOptions{})
	var got AppResult
	pool.Run(0, func(w *Worker) {
		got = w.Check(context.Background(), "plain", func(context.Context, *core.Checker) (*core.Report, error) {
			return clean("plain"), nil
		}, false)
	})
	pool.RecordCounters()
	if got.Outcome != OutcomeChecked || got.Report.App != "plain" {
		t.Fatalf("nil observer: %+v", got)
	}
}

// TestPoolRunsEveryWorkerOnItsOwnChecker: Run starts n loops, each with
// a distinct checker, and returns only after all of them have.
func TestPoolRunsEveryWorkerOnItsOwnChecker(t *testing.T) {
	pool := NewPool(nil, nil, nil, AttemptOptions{})
	checkers := make(chan *core.Checker, 4)
	pool.Run(4, func(w *Worker) { checkers <- w.checker })
	close(checkers)
	seen := map[*core.Checker]bool{}
	for c := range checkers {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("%d distinct checkers for 4 workers", len(seen))
	}
}

// TestParseOutcomeRoundTrip: ParseOutcome inverts String over the four
// outcomes and rejects anything else.
func TestParseOutcomeRoundTrip(t *testing.T) {
	for _, o := range []Outcome{OutcomeChecked, OutcomeDegraded, OutcomeFailed, OutcomeSkipped} {
		got, ok := ParseOutcome(o.String())
		if !ok || got != o {
			t.Errorf("ParseOutcome(%q) = %v, %v; want %v, true", o.String(), got, ok, o)
		}
	}
	for _, bad := range []string{"", "bogus", "Checked", Outcome(7).String()} {
		if _, ok := ParseOutcome(bad); ok {
			t.Errorf("ParseOutcome(%q) accepted", bad)
		}
	}
}

// TestRunStatsUncountUndoesCount: Count keeps the partition Apps =
// Checked + Degraded + Failed + Skipped, and Uncount reverses it
// exactly.
func TestRunStatsUncountUndoesCount(t *testing.T) {
	base := RunStats{Apps: 4, Checked: 1, Degraded: 1, Failed: 1, Skipped: 1, Retried: 5}
	for _, o := range []Outcome{OutcomeChecked, OutcomeDegraded, OutcomeFailed, OutcomeSkipped} {
		s := base
		s.Count(o, 3)
		if s.Apps != 5 || s.Retried != 8 || s.Checked+s.Degraded+s.Failed+s.Skipped != s.Apps {
			t.Fatalf("Count(%v, 3) = %+v", o, s)
		}
		s.Uncount(o, 3)
		if s != base {
			t.Fatalf("Uncount(%v) after Count = %+v, want %+v", o, s, base)
		}
	}
}
