package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"ppchecker/internal/apg"
	"ppchecker/internal/htmltext"
	"ppchecker/internal/libdetect"
	"ppchecker/internal/nlp"
	"ppchecker/internal/policy"
	"ppchecker/internal/static"
)

// CheckSafe runs the full pipeline with every stage isolated: panics
// are recovered into StageError values, ctx cancellation/deadline is
// honoured between stages, and a failed stage degrades the report
// instead of aborting it — the detectors still run over whatever
// analyses succeeded, and the report is marked Partial with the list of
// degraded stages.
//
// The returned error is non-nil only for ctx cancellation (the partial
// report is still returned) or a nil app; every per-stage failure is
// reported through Report.Degraded.
func (c *Checker) CheckSafe(ctx context.Context, app *App) (*Report, error) {
	return c.CheckMemo(ctx, app, nil)
}

// MemoGroup names one memoizable group of pipeline stages. Its value
// is the stage a failing memo call degrades.
type MemoGroup Stage

// The stage groups a StageMemo can serve.
const (
	// MemoPolicy is StageExtract + StagePolicy; it fills Report.Policy.
	MemoPolicy = MemoGroup(StagePolicy)
	// MemoDesc is StageDesc; it fills Report.Desc.
	MemoDesc = MemoGroup(StageDesc)
	// MemoStatic is StageStatic + StageTaint + StageLibs; it fills
	// Report.Static and Report.Libs. It is consulted only for an app
	// with an APK.
	MemoStatic = MemoGroup(StageStatic)
	// MemoDetect is StageDetect; it fills the three finding lists. It
	// is consulted only while the report has no degradation at all:
	// findings over a degraded pipeline are partial output.
	MemoDetect = MemoGroup(StageDetect)
)

// StageMemo serves stage groups from a cache (see CheckMemo).
type StageMemo interface {
	// Load fills the report fields of group g on a hit and reports
	// whether it hit. An error degrades the group, as a failing stage
	// would, and its stages are skipped.
	Load(ctx context.Context, g MemoGroup, r *Report) (hit bool, err error)
	// Store records the report fields of group g after every stage of
	// the group completed. It may replace those fields with equivalent
	// values (a canonical copy of what it stored).
	Store(g MemoGroup, r *Report)
}

// CheckMemo is CheckSafe with a stage memo: before each stage group
// runs, memo may serve its outputs instead, and a group whose stages
// all completed is offered back to memo. A nil memo is plain
// CheckSafe. Memo calls run behind the same panic recovery as stages,
// so a faulty memo degrades only its own group; it is skipped once ctx
// is done, so the stages record the cancellation exactly as CheckSafe
// does.
func (c *Checker) CheckMemo(ctx context.Context, app *App, memo StageMemo) (*Report, error) {
	if app == nil {
		return nil, errors.New("core: nil app")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Report{App: appName(app)}

	// HTML extraction, then policy NLP over the extracted text.
	group(ctx, r, memo, MemoPolicy, func() {
		var policyText string
		if !c.stage(ctx, r, StageExtract, func() error {
			if !utf8.ValidString(app.PolicyHTML) {
				return errors.New("policy is not valid UTF-8")
			}
			policyText = htmltext.Extract(app.PolicyHTML)
			if strings.TrimSpace(app.PolicyHTML) != "" && strings.TrimSpace(policyText) == "" {
				return errors.New("no text extracted from non-empty policy HTML")
			}
			return nil
		}) {
			return
		}
		c.stage(ctx, r, StagePolicy, func() error {
			if err := nlp.GuardText(policyText); err != nil {
				return err
			}
			r.Policy = c.policyAnalyzer.AnalyzeText(policyText)
			return nil
		})
	})
	policyOK := r.Policy != nil
	if !policyOK {
		// The detectors dereference r.Policy; an empty analysis keeps
		// them nil-safe without inventing statements.
		r.Policy = &policy.Analysis{}
	}

	// Description analysis. A nil Desc is already understood by the
	// detectors as "no description evidence".
	group(ctx, r, memo, MemoDesc, func() {
		c.stage(ctx, r, StageDesc, func() error {
			r.Desc = c.descAnalyzer.Analyze(app.Description)
			return nil
		})
	})

	// Static analysis over the APK, when present: APG build + site scan
	// first, then taint as a separately-degradable stage.
	if app.APK != nil {
		group(ctx, r, memo, MemoStatic, func() {
			// The pooled arena feeds both static stages; it is returned
			// only on the clean path — a panicking stage may leave
			// scratch state mid-mutation, and dropping the arena is
			// always safe.
			ar := arenaPool.Get().(*arena)
			var p *apg.APG
			okStatic := c.stage(ctx, r, StageStatic, func() error {
				res, pg, err := static.CollectWith(ctx, app.APK, c.staticOpts, &ar.build)
				if err != nil {
					return err
				}
				r.Static, p = res, pg
				return nil
			})
			if okStatic {
				c.stage(ctx, r, StageTaint, func() error {
					leaks, err := static.TaintLeaksWith(ctx, p, &ar.taint)
					if err != nil {
						return err
					}
					r.Static.Leaks = leaks
					return nil
				})
			}
			if !r.degradedRecovered(StageStatic) && !r.degradedRecovered(StageTaint) {
				arenaPool.Put(ar)
			}
			c.stage(ctx, r, StageLibs, func() error {
				if app.APK.Dex == nil {
					return errors.New("no bytecode to scan for libraries")
				}
				r.Libs = libdetect.Detect(app.APK.Dex)
				return nil
			})
		})
	}

	// Detectors. When the policy analysis itself failed, the policy
	// detectors would report every collected info as unmentioned —
	// noise, not findings — so they are suppressed and the degradation
	// already recorded for the policy stage stands.
	if policyOK {
		if len(r.Degraded) > 0 {
			memo = nil
		}
		group(ctx, r, memo, MemoDetect, func() {
			c.stage(ctx, r, StageDetect, func() error {
				c.DetectStage(app, r)
				return nil
			})
		})
	}

	if err := ctx.Err(); err != nil {
		return r, err
	}
	return r, nil
}

// group runs one stage group through memo: served on a hit, otherwise
// run and, when none of its stages degraded, stored.
func group(ctx context.Context, r *Report, memo StageMemo, g MemoGroup, run func()) {
	if memo == nil {
		run()
		return
	}
	if ctx.Err() == nil {
		var hit bool
		ok := memoCall(r, g, func() (err error) {
			hit, err = memo.Load(ctx, g, r)
			return err
		})
		if !ok || hit {
			return
		}
	}
	n := len(r.Degraded)
	run()
	if len(r.Degraded) == n {
		memoCall(r, g, func() error {
			memo.Store(g, r)
			return nil
		})
	}
}

// memoCall runs one memo call behind panic recovery, degrading the
// group's stage on failure. It reports whether the call succeeded.
func memoCall(r *Report, g MemoGroup, fn func() error) bool {
	err, recovered := runRecovered(fn)
	if err != nil {
		r.AddDegraded(&StageError{Stage: Stage(g), App: r.App,
			Err: fmt.Errorf("stage memo: %w", err), Recovered: recovered})
		return false
	}
	return true
}

// AppName exposes the report-name rule used by CheckSafe (explicit
// name, else manifest package, else a placeholder).
func AppName(app *App) string { return appName(app) }

// DetectStage runs the three finding detectors over the analyses
// already assembled on r (Policy, Desc, Static, Libs), appending to the
// report's finding slices — the StageDetect computation. r.Policy must
// be non-nil. Each detector gets its own sub-span under the detectors
// stage.
func (c *Checker) DetectStage(app *App, r *Report) {
	c.detectorSpan(r, SpanDetectIncomplete, func() { c.detectIncomplete(app, r) })
	c.detectorSpan(r, SpanDetectIncorrect, func() { c.detectIncorrect(app, r) })
	c.detectorSpan(r, SpanDetectInconsistent, func() { c.detectInconsistent(app, r) })
}

// stage runs one pipeline stage behind panic recovery and a
// cancellation check, recording any failure on the report. It reports
// whether the stage completed successfully. Every executed stage is
// timed: the duration lands on Report.Timings and, when an observer is
// attached, in its per-stage metrics and trace sink.
func (c *Checker) stage(ctx context.Context, r *Report, s Stage, fn func() error) bool {
	if err := ctx.Err(); err != nil {
		r.AddDegraded(&StageError{Stage: s, App: r.App, Err: err})
		return false
	}
	sp := c.obs.Start(string(s), r.App, "")
	err, recovered := runRecovered(fn)
	d := sp.End(err, recovered)
	r.Timings = append(r.Timings, StageTiming{Stage: s, Duration: d})
	if err != nil {
		r.AddDegraded(&StageError{Stage: s, App: r.App, Err: err, Recovered: recovered})
		return false
	}
	return true
}

// detectorSpan times one detector as a sub-span of the detectors
// stage. Detectors run inside the stage's panic recovery, so the span
// itself adds no error handling.
func (c *Checker) detectorSpan(r *Report, name string, fn func()) {
	sp := c.obs.Start(name, r.App, string(StageDetect))
	fn()
	sp.End(nil, false)
}

// runRecovered invokes fn, converting a panic into an error. Note that
// stack exhaustion is not recoverable in Go; the size guards in apg,
// taint, and nlp exist precisely so no input can reach that state.
func runRecovered(fn func() error) (err error, recovered bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			recovered = true
		}
	}()
	return fn(), false
}
