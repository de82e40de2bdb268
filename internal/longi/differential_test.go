package longi

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"ppchecker/internal/synth"
)

// corpusShape returns the differential corpus size: the acceptance
// floor (20 apps × 5 versions) by default, a larger sweep when
// LONGI_FULL is set (the nightly CI job).
func corpusShape() (apps, versions int) {
	if os.Getenv("LONGI_FULL") != "" {
		return 40, 8
	}
	return 20, 5
}

func testCorpus(t *testing.T) *synth.VersionedCorpus {
	t.Helper()
	apps, versions := corpusShape()
	corpus, err := synth.GenerateVersioned(synth.VersionedConfig{Seed: 42, Apps: apps, Versions: versions})
	if err != nil {
		t.Fatalf("generate versioned corpus: %v", err)
	}
	return corpus
}

func runOver(t *testing.T, store Store, corpus *synth.VersionedCorpus) *Result {
	t.Helper()
	eng := NewEngine(store, Config{})
	res, err := RunCorpus(context.Background(), eng, corpus, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("run corpus: %v", err)
	}
	return res
}

// TestDeltaVsColdDifferential is the tentpole's correctness bar: over
// a seeded versioned corpus, a delta re-run against the warm artifact
// store and a cold full run produce bit-identical reports, drift
// findings, and RunStats — and the delta run earns at least the 60%
// stage-cache hit rate the acceptance criteria demand (in practice it
// is 100%: every stage of every version is already stored).
func TestDeltaVsColdDifferential(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	warmup := runOver(t, store, corpus) // populates the store
	delta := runOver(t, store, corpus)  // sparse delta run
	cold := runOver(t, NewMemStore(0), corpus)

	if diffs := CompareRuns(delta, cold); len(diffs) > 0 {
		t.Fatalf("delta run differs from cold run (%d diffs), first: %s", len(diffs), diffs[0])
	}
	if diffs := CompareRuns(warmup, cold); len(diffs) > 0 {
		t.Fatalf("warmup run differs from cold run (%d diffs), first: %s", len(diffs), diffs[0])
	}

	if hr := delta.Cache.HitRate(); hr < 0.60 {
		t.Errorf("delta-run stage-cache hit rate = %.2f, want >= 0.60 (%+v)", hr, delta.Cache)
	}
	if delta.Cache.Puts != 0 {
		t.Errorf("delta run stored %d new artifacts, want 0", delta.Cache.Puts)
	}
	// Every version is healthy and has an APK, so it consults the memo
	// for all four stage groups; a first-seen group is stored exactly
	// once, and the delta run is served entirely from the store.
	lookups := int64(4 * warmup.Stats.Versions)
	if w := warmup.Cache; w.Lookups() != lookups || w.Puts != w.Misses || w.StoreErrors != 0 {
		t.Errorf("warmup cache stats %+v, want %d lookups with puts == misses", w, lookups)
	}
	if want := (CacheStats{Hits: lookups}); delta.Cache != want {
		t.Errorf("delta cache stats %+v, want %+v", delta.Cache, want)
	}
	// Even the first run is incremental across versions: unchanged
	// sections of version N+1 hit version N's artifacts.
	if warmup.Cache.Hits == 0 {
		t.Error("warmup run saw no intra-corpus cache hits; version chains share no artifacts?")
	}
	if warmup.Stats.Drift == 0 {
		t.Error("corpus produced no drift findings at all")
	}
}

// artifactFiles lists every artifact file under one stage of a
// DirStore root.
func artifactFiles(t *testing.T, root, stage string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(root, stage), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(p) == ".json" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s artifacts: %v", stage, err)
	}
	return files
}

// TestDifferentialCatchesKeyCollision proves the oracle is not blind:
// if two distinct inputs ever mapped to one key — simulated by copying
// one policy artifact's bytes over another's — the delta run diverges
// and CompareRuns reports it.
func TestDifferentialCatchesKeyCollision(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runOver(t, store, corpus)

	// Find two policy artifacts with different content and alias them.
	files := artifactFiles(t, dir, stagePolicy)
	if len(files) < 2 {
		t.Fatalf("need >= 2 policy artifacts, have %d", len(files))
	}
	var src, dst string
	srcData, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files[1:] {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, srcData) {
			src, dst = files[0], f
			break
		}
	}
	if dst == "" {
		t.Fatal("all policy artifacts identical; corpus too uniform for a collision plant")
	}
	if err := os.WriteFile(dst, srcData, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("planted collision: %s now carries %s's output", filepath.Base(dst), filepath.Base(src))

	delta := runOver(t, store, corpus)
	if diffs := CompareRuns(delta, cold); len(diffs) == 0 {
		t.Fatal("oracle is blind: planted cache-key collision produced an identical run")
	}
}

// TestDifferentialCatchesStaleArtifact plants the other corruption
// mode: an artifact that decodes fine but holds outdated content (a
// detect artifact emptied of its findings, as if an input change had
// failed to invalidate it). The differential must notice.
func TestDifferentialCatchesStaleArtifact(t *testing.T) {
	corpus := testCorpus(t)
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runOver(t, store, corpus)

	// Overwrite every detect artifact that holds findings with a valid
	// empty one.
	stale := []byte(`{"incomplete":null,"incorrect":null,"inconsistent":null}`)
	planted := 0
	for _, f := range artifactFiles(t, dir, stageDetect) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, stale) {
			continue
		}
		if err := os.WriteFile(f, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		planted++
	}
	if planted == 0 {
		t.Fatal("no detect artifact carried findings; nothing to stale out")
	}

	delta := runOver(t, store, corpus)
	if diffs := CompareRuns(delta, cold); len(diffs) == 0 {
		t.Fatalf("oracle is blind: %d stale artifacts produced an identical run", planted)
	}
}

// TestPlantedDriftClasses checks the drift differ against generator
// ground truth: every planted drift surfaces with the expected class,
// every drift class is exercised somewhere in the corpus, and
// churn-only transitions (policy reworded, description reworded,
// library added) emit no drift at all.
func TestPlantedDriftClasses(t *testing.T) {
	corpus := testCorpus(t)
	res := runOver(t, NewMemStore(0), corpus)

	classOf := func(p synth.PlantedDrift) DriftClass {
		switch {
		case !p.Appeared:
			return DriftResolved
		case p.PolicyChanged:
			return DriftPolicyWeakened
		default:
			return DriftSilentBehavior
		}
	}

	seenClass := map[DriftClass]int{}
	for ai, va := range corpus.Apps {
		hist := res.Histories[ai]
		// Which transitions have planted drift.
		plantedAt := map[int]bool{}
		for _, p := range va.Drifts {
			plantedAt[p.ToVersion] = true
			want := classOf(p)
			found := false
			for _, d := range hist.Drift {
				if d.FromVersion == p.FromVersion && d.ToVersion == p.ToVersion &&
					d.Class == want && d.Info == string(p.Info) && d.Kind == "incomplete" {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: planted %s drift on %q at v%d→v%d not reported; emitted: %+v",
					va.Pkg, want, p.Info, p.FromVersion, p.ToVersion, hist.Drift)
				continue
			}
			seenClass[want]++
		}
		// No drift may surface at transitions with no planted drift.
		for _, d := range hist.Drift {
			if !plantedAt[d.ToVersion] {
				t.Errorf("%s: unplanted drift at v%d→v%d: %+v (mutation %q)",
					va.Pkg, d.FromVersion, d.ToVersion, d, va.Versions[d.ToVersion-1].Mutation)
			}
		}
	}
	for _, c := range []DriftClass{DriftSilentBehavior, DriftPolicyWeakened, DriftResolved} {
		if seenClass[c] == 0 {
			t.Errorf("drift class %s never exercised by the corpus", c)
		}
	}
}

// TestVersionedCorpusDeterminism: History(i) is a pure function — two
// generators with the same seed produce byte-identical versions, and
// sections untouched by a mutation reproduce their bytes exactly.
func TestVersionedCorpusDeterminism(t *testing.T) {
	a := synth.NewVersionedFirehose(17, 5)
	b := synth.NewVersionedFirehose(17, 5)
	for i := int64(0); i < 6; i++ {
		va, err := a.History(i)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.History(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(va.Versions) != len(vb.Versions) {
			t.Fatalf("app %d: version counts differ", i)
		}
		for v := range va.Versions {
			x, y := va.Versions[v].App, vb.Versions[v].App
			if x.PolicyHTML != y.PolicyHTML || x.Description != y.Description {
				t.Errorf("app %d v%d: text not deterministic", i, v+1)
			}
		}
		// Churn-only mutations leave the other sections byte-identical.
		for v := 1; v < len(va.Versions); v++ {
			prev, cur := va.Versions[v-1], va.Versions[v]
			switch cur.Mutation {
			case synth.MutPolicyChurn:
				if cur.App.PolicyHTML == prev.App.PolicyHTML {
					t.Errorf("app %d v%d: policy churn changed nothing", i, v+1)
				}
				if cur.App.Description != prev.App.Description {
					t.Errorf("app %d v%d: policy churn touched the description", i, v+1)
				}
			case synth.MutDescChurn:
				if cur.App.Description == prev.App.Description {
					t.Errorf("app %d v%d: desc churn changed nothing", i, v+1)
				}
				if cur.App.PolicyHTML != prev.App.PolicyHTML {
					t.Errorf("app %d v%d: desc churn touched the policy", i, v+1)
				}
			case synth.MutWeakenPolicy, synth.MutFixPolicy:
				if cur.App.PolicyHTML == prev.App.PolicyHTML {
					t.Errorf("app %d v%d: %s did not change the policy", i, v+1, cur.Mutation)
				}
			}
		}
	}
}
