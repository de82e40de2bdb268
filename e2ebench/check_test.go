package main

import (
	"context"
	"encoding/json"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/eval"
	"ppchecker/internal/report"
	"ppchecker/internal/serve"
)

// plantedBatch builds the /check-batch response the server should send
// for batch request idx, from local analyses, then lets plant corrupt
// it.
func plantedBatch(t *testing.T, in *serveInputs, idx int64, plant func(*serve.BatchResponse)) []byte {
	t.Helper()
	apps, err := in.batchApps(idx)
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker()
	var resp serve.BatchResponse
	for _, app := range apps {
		rep, err := checker.CheckSafe(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		resp.Apps = append(resp.Apps, serve.CheckResponse{
			Name: app.Name, Outcome: eval.OutcomeChecked.String(), Report: report.FromReport(rep),
		})
	}
	plant(&resp)
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutputCheckIsNotBlind plants one flipped finding, one dropped
// finding and one wrong outcome in otherwise correct server output;
// the check must pass the clean output and fail every planted one.
func TestOutputCheckIsNotBlind(t *testing.T) {
	in := newServeInputs(1, false)
	const idx = 0 // apps 0-3: app 1 misses information, so it has an incomplete finding
	plants := map[string]func(*serve.BatchResponse){
		"clean": func(*serve.BatchResponse) {},
		"flipped finding": func(r *serve.BatchResponse) {
			f := &r.Apps[1].Report.Incomplete[0]
			if f.Info == "location" {
				f.Info = "contact"
			} else {
				f.Info = "location"
			}
		},
		"dropped finding": func(r *serve.BatchResponse) {
			r.Apps[1].Report.Incomplete = r.Apps[1].Report.Incomplete[1:]
		},
		"wrong outcome": func(r *serve.BatchResponse) {
			r.Apps[2].Outcome = eval.OutcomeDegraded.String()
		},
	}
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			body := plantedBatch(t, in, idx, func(r *serve.BatchResponse) {
				if len(r.Apps[1].Report.Incomplete) == 0 {
					t.Fatal("app 1 has no incomplete finding to plant a fault in")
				}
				plant(r)
			})
			got, err := responseDigests(body)
			if err != nil {
				t.Fatal(err)
			}
			var check outputCheck
			if err := checkServe(&check, in, nil, map[int64][]appDigest{idx: got}); err != nil {
				t.Fatal(err)
			}
			err = check.err()
			if name == "clean" && err != nil {
				t.Fatalf("clean output rejected: %v", err)
			}
			if name != "clean" && err == nil {
				t.Fatalf("planted %s passed the output check", name)
			}
		})
	}
}

// TestSampledStreamCheckIsNotBlind plants a flipped finding in one
// sampled stream result.
func TestSampledStreamCheckIsNotBlind(t *testing.T) {
	in := newServeInputs(1, false)
	apps, err := in.batchApps(0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := referenceOutput(core.NewChecker(), apps[1])
	if err != nil {
		t.Fatal(err)
	}
	good := out.digest()
	var clean outputCheck
	if err := checkSampled(&clean, 1, []*appTimes{{idx: 1, out: &good}}); err != nil {
		t.Fatal(err)
	}
	if err := clean.err(); err != nil {
		t.Fatalf("clean stream result rejected: %v", err)
	}

	var doc report.Document
	if err := json.Unmarshal(out.Doc, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Incomplete[0].Retained = !doc.Incomplete[0].Retained
	flipped, err := canonicalDoc(&doc)
	if err != nil {
		t.Fatal(err)
	}
	bad := appOutput{Outcome: out.Outcome, Doc: flipped}.digest()
	var check outputCheck
	if err := checkSampled(&check, 1, []*appTimes{{idx: 1, out: &bad}}); err != nil {
		t.Fatal(err)
	}
	if check.err() == nil {
		t.Fatal("flipped finding in a stream result passed the output check")
	}
}

// TestRunStatsCheckIsNotBlind moves one app from checked to failed.
func TestRunStatsCheckIsNotBlind(t *testing.T) {
	want := eval.RunStats{Apps: 10, Checked: 10}
	var same outputCheck
	same.compareRunStats("run", want, want)
	if err := same.err(); err != nil {
		t.Fatalf("identical run stats rejected: %v", err)
	}
	var check outputCheck
	check.compareRunStats("run", want, eval.RunStats{Apps: 10, Checked: 9, Failed: 1})
	if check.err() == nil {
		t.Fatal("a wrong outcome in the run stats passed the check")
	}
}

func TestEmptyCheckFails(t *testing.T) {
	var check outputCheck
	if check.err() == nil {
		t.Fatal("a check that compared nothing passed")
	}
}
