package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/report"
)

// appOutput is what every execution mode must agree on for one app:
// its outcome and its report document with the run-dependent timings
// removed (the same normalization the golden and longi suites use).
type appOutput struct {
	Outcome string
	Doc     []byte
}

// canonicalDoc serializes a report document without its timings.
func canonicalDoc(doc *report.Document) ([]byte, error) {
	if doc == nil {
		return nil, errors.New("nil report document")
	}
	d := *doc
	d.Timings = nil
	return json.Marshal(&d)
}

// outputOf is the canonical output of a finished analysis.
func outputOf(rep *core.Report, outcome eval.Outcome) (appOutput, error) {
	if rep == nil {
		return appOutput{}, errors.New("nil report")
	}
	doc, err := canonicalDoc(report.FromReport(rep))
	return appOutput{Outcome: outcome.String(), Doc: doc}, err
}

// appDigest is an appOutput reduced to its outcome and a hash of its
// document, so a run can hold its sampled outputs in a few bytes each
// and they do not weigh on the live-heap measurement.
type appDigest struct {
	Outcome string
	Sum     [sha256.Size]byte
}

func (o appOutput) digest() appDigest {
	return appDigest{Outcome: o.Outcome, Sum: sha256.Sum256(o.Doc)}
}

// referenceOutput analyzes app serially on checker the way the corpus
// runner does (eval.CheckApp, no retries): the single-process result
// every other mode is compared against.
func referenceOutput(checker *core.Checker, app *core.App) (appOutput, error) {
	rep, outcome, _ := eval.CheckApp(context.Background(), checker, app.Name,
		func(ctx context.Context, c *core.Checker) (*core.Report, error) { return c.CheckSafe(ctx, app) },
		eval.AttemptOptions{})
	return outputOf(rep, outcome)
}

// outputCheck accumulates comparisons of program output against the
// reference; any mismatch makes the run incorrect.
type outputCheck struct {
	compared   int
	failed     int
	mismatches []string // the first maxReported failures
}

// maxReported bounds how many mismatches are kept for the error text.
const maxReported = 5

func (c *outputCheck) failf(format string, args ...any) {
	c.failed++
	if len(c.mismatches) < maxReported {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// compareApp checks one app's output against its reference.
func (c *outputCheck) compareApp(what string, want appOutput, got appDigest) {
	c.compared++
	if want.Outcome != got.Outcome {
		c.failf("%s: outcome %q, reference %q", what, got.Outcome, want.Outcome)
		return
	}
	if sha256.Sum256(want.Doc) != got.Sum {
		c.failf("%s: report differs from the reference %s", what, want.Doc)
	}
}

// compareRunStats checks the outcome partition of a run.
func (c *outputCheck) compareRunStats(what string, want, got eval.RunStats) {
	c.compared++
	type counts struct{ Apps, Checked, Degraded, Failed, Retried, Skipped int }
	w := counts{want.Apps, want.Checked, want.Degraded, want.Failed, want.Retried, want.Skipped}
	g := counts{got.Apps, got.Checked, got.Degraded, got.Failed, got.Retried, got.Skipped}
	if w != g {
		c.failf("%s: run stats %+v, reference %+v", what, g, w)
	}
}

// err reports the mismatches, or nil when every comparison held. A
// check that compared nothing is itself a failure: it would pass any
// output.
func (c *outputCheck) err() error {
	if c.failed > 0 {
		return fmt.Errorf("%d of %d output checks failed:\n  %s", c.failed, c.compared, strings.Join(c.mismatches, "\n  "))
	}
	if c.compared == 0 {
		return errors.New("output check compared nothing")
	}
	return nil
}
