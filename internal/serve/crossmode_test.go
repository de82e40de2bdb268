package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/report"
	"ppchecker/internal/serve"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// canonicalDoc renders a report document as canonical JSON with the
// run-varying timing section cleared, so two runs of one app compare
// byte for byte.
func canonicalDoc(t testing.TB, d *report.Document) string {
	t.Helper()
	if d == nil {
		t.Fatal("nil report document")
	}
	d.Timings = nil
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// modeResult is one app's result in one execution mode.
type modeResult struct {
	outcome string
	doc     string
}

// TestCrossModeFindingsDifferential runs the same distinct firehose
// apps through four execution modes — a serial eval.CheckApp loop on
// one checker, eval.RunJobs with 3 workers, stream.Run with 2 workers
// and ppserve's /check-batch — and asserts that every app gets the same
// outcome and the same canonical report document in each. Outcome
// counts alone cannot see a mode that drops or alters findings; this
// compares the findings themselves. (RunJobs exposes no per-app
// outcome, so its tally is compared against the serial one instead.)
func TestCrossModeFindingsDifferential(t *testing.T) {
	const n = 32
	ctx := context.Background()
	fh := synth.NewFirehose(2016)
	gas := make([]synth.GeneratedApp, n)
	seen := map[string]bool{}
	for i := range gas {
		ga, err := fh.App(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[ga.App.Name] {
			t.Fatalf("firehose app %d repeats name %q", i, ga.App.Name)
		}
		seen[ga.App.Name] = true
		gas[i] = ga
	}
	runFor := func(app *core.App) func(context.Context, *core.Checker) (*core.Report, error) {
		return func(ctx context.Context, c *core.Checker) (*core.Report, error) {
			return c.CheckSafe(ctx, app)
		}
	}

	// Reference: serial CheckApp on one checker.
	want := map[string]modeResult{}
	var wantStats eval.RunStats
	checker := core.NewChecker()
	problems := 0
	for _, ga := range gas {
		rep, outcome, _ := eval.CheckApp(ctx, checker, ga.App.Name, runFor(ga.App), eval.AttemptOptions{})
		if rep.HasProblem() {
			problems++
		}
		want[ga.App.Name] = modeResult{outcome.String(), canonicalDoc(t, report.FromReport(rep))}
		wantStats.Apps++
		switch outcome {
		case eval.OutcomeChecked:
			wantStats.Checked++
		case eval.OutcomeDegraded:
			wantStats.Degraded++
		case eval.OutcomeFailed:
			wantStats.Failed++
		case eval.OutcomeSkipped:
			wantStats.Skipped++
		}
	}
	if problems == 0 {
		t.Fatal("no app has a finding; the differential would compare empty reports")
	}
	compare := func(mode string, got map[string]modeResult, checkOutcome bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d apps, want %d", mode, len(got), len(want))
		}
		for name, w := range want {
			g, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: app %s missing", mode, name)
			case checkOutcome && g.outcome != w.outcome:
				t.Errorf("%s: app %s outcome %s, serial %s", mode, name, g.outcome, w.outcome)
			case g.doc != w.doc:
				t.Errorf("%s: app %s report differs from serial\n got: %s\nwant: %s", mode, name, g.doc, w.doc)
			}
		}
	}

	// eval.RunJobs, 3 workers.
	jobs := make([]eval.Job, n)
	for i, ga := range gas {
		jobs[i] = eval.Job{Name: ga.App.Name, Truth: ga.Truth, Run: runFor(ga.App)}
	}
	res, stats, err := eval.RunJobs(ctx, jobs, eval.RunOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats.Metrics = nil
	if stats != wantStats {
		t.Errorf("RunJobs stats %+v, serial %+v", stats, wantStats)
	}
	got := map[string]modeResult{}
	for i, rep := range res.Reports {
		got[jobs[i].Name] = modeResult{doc: canonicalDoc(t, report.FromReport(rep))}
	}
	compare("RunJobs", got, false)

	// stream.Run, 2 workers, results via OnResult.
	var mu sync.Mutex
	got = map[string]modeResult{}
	sstats, err := stream.Run(ctx, stream.NewFirehoseSource(fh.Seed(), n), stream.Options{
		Workers: 2,
		OnResult: func(r stream.Result) {
			doc := canonicalDoc(t, report.FromReport(r.Report))
			mu.Lock()
			got[r.Name] = modeResult{r.Outcome.String(), doc}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sstats.Metrics = nil
	if sstats.RunStats != wantStats {
		t.Errorf("stream stats %+v, serial %+v", sstats.RunStats, wantStats)
	}
	compare("stream", got, true)

	// ppserve /check-batch.
	srv := startServer(t, serve.Options{Workers: 2, QueueDepth: n})
	batch := serve.BatchRequest{Apps: make([]serve.CheckRequest, n)}
	for i, ga := range gas {
		batch.Apps[i] = wireApp(t, ga)
	}
	resp, body := postJSON(t, "http://"+srv.Addr()+"/check-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check-batch status %d: %s", resp.StatusCode, body)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	got = map[string]modeResult{}
	for _, cr := range br.Apps {
		got[cr.Name] = modeResult{cr.Outcome, canonicalDoc(t, cr.Report)}
	}
	compare("serve", got, true)
	if br.Stats.Apps != wantStats.Apps || br.Stats.Checked != wantStats.Checked ||
		br.Stats.Degraded != wantStats.Degraded || br.Stats.Failed != wantStats.Failed ||
		br.Stats.Skipped != wantStats.Skipped {
		t.Errorf("serve stats %+v, serial %+v", br.Stats, wantStats)
	}
}
