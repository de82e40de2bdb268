package eval

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ppchecker/internal/bundle"
	"ppchecker/internal/core"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// TestEvaluateCorpusDirToleratesCorruptBundle: one Corruptor-damaged
// bundle on disk degrades its own report — the other apps evaluate
// exactly as before and the run no longer aborts.
func TestEvaluateCorpusDirToleratesCorruptBundle(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:20], LibPolicies: ds.LibPolicies}
	dir := t.TempDir()
	if err := bundle.WriteDataset(small, dir); err != nil {
		t.Fatal(err)
	}
	base, _, err := EvaluateCorpusDirRobust(context.Background(), dir, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Damage one bundle's APK with the fault-injection harness.
	victim := small.Apps[7].App.Name
	if err := synth.NewCorruptor(42).CorruptBundle(
		filepath.Join(dir, "apps", victim), synth.FaultDexTruncated); err != nil {
		t.Fatal(err)
	}

	res, _, err := EvaluateCorpusDirRobust(context.Background(), dir, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("corrupt bundle aborted the run: %v", err)
	}
	if len(res.Reports) != len(base.Reports) {
		t.Fatalf("report count changed: %d vs %d", len(res.Reports), len(base.Reports))
	}
	degraded := 0
	for i, rep := range res.Reports {
		if rep.App == victim {
			degraded++
			if !rep.Partial {
				t.Errorf("corrupted app %s not marked Partial", victim)
			}
			if !rep.DegradedStage(core.StageDecode) && !rep.DegradedStage(core.StageRead) {
				t.Errorf("corrupted app degraded under wrong stage: %v", rep.Degraded)
			}
			continue
		}
		if rep.Partial {
			t.Errorf("untouched app %s marked Partial: %v", rep.App, rep.Degraded)
		}
		if got, want := rep.Summary(), base.Reports[i].Summary(); got != want {
			t.Errorf("untouched app %s changed results:\n%s\nvs\n%s", rep.App, got, want)
		}
	}
	if degraded != 1 {
		t.Fatalf("victim report missing: %d matches", degraded)
	}
}

// TestEvaluateCorpusDirMissingFiles: a bundle with its policy deleted
// (a lenient-read failure, not a decode failure) degrades under
// bundle-read while the rest of the corpus stays clean.
func TestEvaluateCorpusDirMissingFiles(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:6], LibPolicies: ds.LibPolicies}
	dir := t.TempDir()
	if err := bundle.WriteDataset(small, dir); err != nil {
		t.Fatal(err)
	}
	victim := small.Apps[2].App.Name
	if err := os.Remove(filepath.Join(dir, "apps", victim, "policy.html")); err != nil {
		t.Fatal(err)
	}
	res, _, err := EvaluateCorpusDirRobust(context.Background(), dir, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		if rep.App == victim {
			if !rep.DegradedStage(core.StageRead) {
				t.Fatalf("missing policy not recorded under bundle-read: %v", rep.Degraded)
			}
		} else if rep.Partial {
			t.Fatalf("healthy app %s degraded", rep.App)
		}
	}
}

// TestRunStatsMetricsAggregation: an instrumented robust run aggregates
// per-stage metrics into RunStats.Metrics — stage run counts match the
// corpus size, per-app spans cover every app, and the latency columns
// are populated and internally consistent.
func TestRunStatsMetricsAggregation(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, NumApps: synth.MinApps})
	if err != nil {
		t.Fatal(err)
	}
	small := &synth.Dataset{Apps: ds.Apps[:40], LibPolicies: ds.LibPolicies}
	opts := DefaultRunOptions()
	opts.Workers = 4
	opts.Observer = obs.New()
	_, stats, err := EvaluateCorpusRobust(context.Background(), small, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := stats.Metrics
	if m == nil {
		t.Fatal("RunStats.Metrics not populated")
	}
	apps := int64(len(small.Apps))
	for _, stage := range []string{
		string(core.StageExtract), string(core.StagePolicy),
		string(core.StageDesc), string(core.StageDetect),
		string(core.StageRun),
	} {
		st, ok := m.Stage(stage)
		if !ok {
			t.Errorf("stage %s missing from metrics", stage)
			continue
		}
		if st.Runs != apps {
			t.Errorf("stage %s runs = %d, want %d", stage, st.Runs, apps)
		}
		if st.Errors != 0 {
			t.Errorf("stage %s errors = %d on a clean corpus", stage, st.Errors)
		}
		if st.Max <= 0 || st.P50 <= 0 || st.P95 < st.P50 || st.Max < st.P95 {
			t.Errorf("stage %s latency columns inconsistent: %+v", stage, st)
		}
		if st.Total < st.Max {
			t.Errorf("stage %s total %v < max %v", stage, st.Total, st.Max)
		}
	}
	// The per-app corpus-run span dominates: its total must be at least
	// the summed stage totals for the pipeline stages it encloses.
	run, _ := m.Stage(string(core.StageRun))
	if enclosed, _ := m.Stage(string(core.StagePolicy)); run.Total < enclosed.Total {
		t.Errorf("corpus-run total %v < policy-nlp total %v", run.Total, enclosed.Total)
	}
	// Un-instrumented runs leave Metrics nil.
	_, plain, err := EvaluateCorpusRobust(context.Background(), small, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil {
		t.Fatal("Metrics non-nil without an observer")
	}
}
