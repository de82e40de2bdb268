package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ppchecker/internal/core"
	"ppchecker/internal/desc"
	"ppchecker/internal/eval"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/policy"
	"ppchecker/internal/report"
	"ppchecker/internal/static"
	"ppchecker/internal/taint"
)

// Replay stage names, in pipeline order. Each is a per-layer metric
// (mean µs per app over the replay).
var replayStages = []string{
	"htmltext.extract_us", "policy.analyze_us", "desc.analyze_us",
	"static.collect_us", "taint.leaks_us", "libdetect.detect_us", "core.detect_us",
}

// replayApps is the length of the replayed prefix of a workload's app
// sequence. A fixed length keeps static.collect_drift comparable
// between commits that process different numbers of apps in the timed
// phase, and bounds the replay's time while the reused scratch grows
// with every distinct app.
const replayApps = 20000

// verifyEvery is how often the replay checks that the report it
// assembled equals CheckSafe's on the same app.
const verifyEvery = 50

// stageReplay re-runs a workload's app sequence serially, one public
// stage function at a time, so each layer's self time is measured from
// outside the program. It holds one long-lived static and taint
// scratch, as a pooled worker arena does, so per-app growth of the
// reused graph state shows in static.collect_us over the sequence.
type stageReplay struct {
	checker *core.Checker
	ref     *core.Checker
	pol     *policy.Analyzer
	desc    *desc.Analyzer
	sopts   static.Options
	ss      static.Scratch
	ts      taint.Scratch

	stage   map[string]*Samples
	collect []float64 // static.collect µs in sequence order (drift)
	doc     Samples   // report.FromReport + JSON encode, µs
	busy    time.Duration
	apps    int
	check   *outputCheck
}

func newStageReplay(check *outputCheck) *stageReplay {
	r := &stageReplay{
		checker: core.NewChecker(),
		ref:     core.NewChecker(),
		pol:     policy.NewAnalyzer(),
		desc:    desc.NewAnalyzer(),
		sopts:   static.DefaultOptions(),
		stage:   map[string]*Samples{},
		check:   check,
	}
	for _, s := range replayStages {
		r.stage[s] = &Samples{}
	}
	return r
}

// run replays one app; seq is its position in the workload sequence.
func (r *stageReplay) run(seq int, app *core.App) error {
	ctx := context.Background()
	rep := &core.Report{App: core.AppName(app)}
	var marks [8]time.Time // one boundary before, between and after the seven stages
	marks[0] = time.Now()
	text := htmltext.Extract(app.PolicyHTML)
	marks[1] = time.Now()
	rep.Policy = r.pol.AnalyzeText(text)
	marks[2] = time.Now()
	rep.Desc = r.desc.Analyze(app.Description)
	marks[3] = time.Now()
	if app.APK != nil {
		res, p, err := static.CollectWith(ctx, app.APK, r.sopts, &r.ss)
		if err != nil {
			return fmt.Errorf("replay %s: static: %w", rep.App, err)
		}
		marks[4] = time.Now()
		leaks, err := static.TaintLeaksWith(ctx, p, &r.ts)
		if err != nil {
			return fmt.Errorf("replay %s: taint: %w", rep.App, err)
		}
		res.Leaks = leaks
		rep.Static = res
		marks[5] = time.Now()
		rep.Libs = libdetect.Detect(app.APK.Dex)
		marks[6] = time.Now()
	} else {
		marks[4], marks[5], marks[6] = marks[3], marks[3], marks[3]
	}
	r.checker.DetectStage(app, rep)
	marks[7] = time.Now()

	for i, name := range replayStages {
		r.stage[name].Add(float64(marks[i+1].Sub(marks[i])) / 1e3)
	}
	r.collect = append(r.collect, float64(marks[4].Sub(marks[3]))/1e3)
	r.busy += marks[7].Sub(marks[0])
	r.apps++

	t := time.Now()
	doc := report.FromReport(rep)
	if _, err := json.Marshal(doc); err != nil {
		return fmt.Errorf("replay %s: encode: %w", rep.App, err)
	}
	r.doc.Add(float64(time.Since(t)) / 1e3)

	if seq%verifyEvery == 0 {
		got, err := outputOf(rep, eval.OutcomeChecked)
		if err != nil {
			return err
		}
		want, err := referenceOutput(r.ref, app)
		if err != nil {
			return err
		}
		r.check.compareApp(fmt.Sprintf("stage replay of %s", rep.App), want, got.digest())
	}
	return nil
}

// drift is the mean static.collect time of the last tenth of the
// sequence over that of the first tenth, with the tenth's size as
// base. A reused arena whose state grows with every distinct app
// reads above 1.
func (r *stageReplay) drift() Stat {
	n := len(r.collect) / 10
	if n == 0 {
		return Stat{}
	}
	first, last := 0.0, 0.0
	for i := 0; i < n; i++ {
		first += r.collect[i]
		last += r.collect[len(r.collect)-n+i]
	}
	if first == 0 {
		return Stat{}
	}
	return Stat{Value: last / first, N: int64(n)}
}

// metrics returns the replay's per-layer metrics.
func (r *stageReplay) metrics() []metric {
	var ms []metric
	for _, name := range replayStages {
		ms = append(ms, metric{name, "us", r.stage[name].Mean()})
	}
	ms = append(ms,
		metric{"static.collect_drift", "ratio", r.drift()},
		metric{"core.serial_apps_per_s", "apps/s", Stat{Value: float64(r.apps) / r.busy.Seconds(), N: int64(r.apps)}},
		metric{"report.document_us", "us", r.doc.Mean()},
	)
	return ms
}
