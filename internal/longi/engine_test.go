package longi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/dex"
	"ppchecker/internal/obs"
	"ppchecker/internal/synth"
)

// reportJSON serializes a report with its Timings stripped — the one
// field CheckSafe populates and the longitudinal engine deliberately
// does not.
func reportJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	clone := *r
	clone.Timings = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// degradedApps are inputs that degrade some stage, keyed by row name.
// Each is derived from a firehose app without mutating it.
func degradedApps(t *testing.T) map[string]*core.App {
	t.Helper()
	fh := synth.NewFirehose(99)
	gen := func(i int64) *core.App {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		return ga.App
	}
	withAPK := func(app *core.App, edit func(*apk.APK)) *core.App {
		cp, a := *app, *app.APK
		edit(&a)
		cp.APK = &a
		return &cp
	}
	withClass := func(app *core.App, cls *dex.Class) *core.App {
		return withAPK(app, func(a *apk.APK) {
			a.Dex = &dex.Dex{Classes: append(append([]*dex.Class(nil), a.Dex.Classes...), cls)}
		})
	}
	withPolicy := func(app *core.App, html string) *core.App {
		cp := *app
		cp.PolicyHTML = html
		return &cp
	}
	return map[string]*core.App{
		// One method over the APG size limit: apg-static fails, the
		// library scan still succeeds.
		"bomb-dex":           withClass(gen(111), synth.BombDex().Classes[0]),
		"script-policy":      withPolicy(gen(1), "<script>x</script>"),
		"invalid-utf8":       withPolicy(gen(2), "we collect \xff\xfe location"),
		"nil-dex":            withAPK(gen(3), func(a *apk.APK) { a.Dex = nil }),
		"nil-method":         withClass(gen(4), &dex.Class{Name: "Lcom/synth/Nil;", Methods: []*dex.Method{nil}}),
		"packed-no-manifest": withAPK(gen(5), func(a *apk.APK) { a.Packed, a.Manifest = true, nil }),
	}
}

// TestCheckVersionMatchesCheckSafe proves the incremental engine is a
// drop-in for the monolithic pipeline: for a slice of healthy firehose
// apps and for inputs that degrade a stage, CheckVersion — on a cold
// store and again on the warm store — and CheckSafe produce the same
// findings, analyses, and degradation state. Because the engine
// canonicalizes fresh computes through a JSON round trip, the
// comparison also round-trips the CheckSafe report, which erases only
// encoding-invisible differences (nil vs empty slices).
func TestCheckVersionMatchesCheckSafe(t *testing.T) {
	fh := synth.NewFirehose(99)
	apps := degradedApps(t)
	for i := int64(0); i < 16; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		apps[fmt.Sprintf("firehose-%d", i)] = ga.App
	}
	ctx := context.Background()
	ref := core.NewChecker(Config{}.CheckerOptions()...)

	for name, app := range apps {
		t.Run(name, func(t *testing.T) {
			want, err := ref.CheckSafe(ctx, app)
			if err != nil {
				t.Fatalf("CheckSafe: %v", err)
			}
			// Round-trip the reference the same way the engine's
			// artifact store does, so the comparison is
			// encoding-canonical. Degradations hold errors, which do
			// not decode; they carry over as they are.
			stripped := *want
			stripped.Degraded = nil
			var wantCanon core.Report
			if err := json.Unmarshal(reportJSON(t, &stripped), &wantCanon); err != nil {
				t.Fatalf("canonicalize: %v", err)
			}
			wantCanon.Degraded = want.Degraded
			w := reportJSON(t, &wantCanon)
			if name == "bomb-dex" && len(want.Inconsistent) == 0 {
				t.Errorf("bomb-dex row has no inconsistent finding: %s", w)
			}

			eng := NewEngine(NewMemStore(0), Config{})
			checker := core.NewChecker(eng.Config().CheckerOptions()...)
			for _, pass := range []string{"cold", "warm"} {
				got, err := eng.CheckVersion(ctx, checker, app)
				if err != nil {
					t.Fatalf("%s CheckVersion: %v", pass, err)
				}
				if g := reportJSON(t, got); !bytes.Equal(g, w) {
					t.Errorf("%s CheckVersion != CheckSafe\n got: %s\nwant: %s", pass, g, w)
				}
			}
			if s := eng.Stats(); s.Puts == 0 {
				t.Fatalf("cold run stored no artifacts: %+v", s)
			}
		})
	}
}

// TestCheckVersionObserverSpans: a cold CheckVersion records the same
// stage and detector spans as CheckSafe on the same app, and a fully
// warm one records none — every stage was served from the store.
func TestCheckVersionObserverSpans(t *testing.T) {
	ga, err := synth.NewFirehose(7).App(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(NewMemStore(0), Config{})
	spans := func(run func(*core.Checker) (*core.Report, error)) *obs.Snapshot {
		t.Helper()
		o := obs.New()
		if _, err := run(core.NewChecker(append(eng.Config().CheckerOptions(), core.WithObserver(o))...)); err != nil {
			t.Fatal(err)
		}
		return o.Snapshot()
	}
	version := func(c *core.Checker) (*core.Report, error) { return eng.CheckVersion(ctx, c, ga.App) }
	ref := spans(func(c *core.Checker) (*core.Report, error) { return c.CheckSafe(ctx, ga.App) })
	cold := spans(version)
	warm := spans(version)

	for _, name := range []string{
		string(core.StageExtract), string(core.StagePolicy),
		string(core.StageDesc), string(core.StageStatic),
		string(core.StageTaint), string(core.StageLibs),
		string(core.StageDetect),
		core.SpanDetectIncomplete, core.SpanDetectIncorrect,
		core.SpanDetectInconsistent,
	} {
		r, _ := ref.Stage(name)
		c, _ := cold.Stage(name)
		w, _ := warm.Stage(name)
		if r.Runs != 1 || c.Runs != r.Runs {
			t.Errorf("span %s: cold CheckVersion runs=%d, CheckSafe runs=%d, want 1", name, c.Runs, r.Runs)
		}
		if w.Runs != 0 {
			t.Errorf("span %s: warm CheckVersion runs=%d, want 0", name, w.Runs)
		}
	}
}

// TestCheckVersionCacheHitIdentical proves that re-analyzing the same
// version against the warm store returns a byte-identical report
// without recomputing any stage.
func TestCheckVersionCacheHitIdentical(t *testing.T) {
	fh := synth.NewFirehose(7)
	eng := NewEngine(NewMemStore(0), Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	ctx := context.Background()

	ga, err := fh.App(1) // archetype with missed info → findings present
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()

	// Second pass must be all hits, no computes: poison the hook so any
	// compute fails loudly.
	eng.stageHook = func(ctx context.Context, stage string) error {
		t.Errorf("stage %q recomputed on warm store", stage)
		return nil
	}
	second, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	warm := eng.Stats()
	if got, want := warm.Hits-cold.Hits, int64(4); got != want {
		t.Errorf("warm pass hits = %d, want %d", got, want)
	}
	if warm.Puts != cold.Puts {
		t.Errorf("warm pass stored artifacts: %d -> %d", cold.Puts, warm.Puts)
	}
	a, b := reportJSON(t, first), reportJSON(t, second)
	if !bytes.Equal(a, b) {
		t.Errorf("warm report differs from cold:\ncold: %s\nwarm: %s", a, b)
	}
	if !second.HasProblem() {
		t.Error("archetype 1 app should carry findings")
	}
}

// TestStageKeyConfigSeparation: the same inputs under a different
// checker configuration must never share artifacts.
func TestStageKeyConfigSeparation(t *testing.T) {
	store := NewMemStore(0)
	a := NewEngine(store, Config{})
	b := NewEngine(store, Config{SynonymExpansion: true})
	fh := synth.NewFirehose(3)
	ga, err := fh.App(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.CheckVersion(ctx, core.NewChecker(a.Config().CheckerOptions()...), ga.App); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CheckVersion(ctx, core.NewChecker(b.Config().CheckerOptions()...), ga.App); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Hits != 0 {
		t.Errorf("different config hit the other config's artifacts: %+v", s)
	}
}

// TestDirStoreRoundTrip exercises the durable store through the
// engine: a second engine over the same directory must hit every
// artifact the first one stored.
func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fh := synth.NewFirehose(11)
	ga, err := fh.App(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng1 := NewEngine(store1, Config{})
	r1, err := eng1.CheckVersion(ctx, core.NewChecker(eng1.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(store2, Config{})
	eng2.stageHook = func(ctx context.Context, stage string) error {
		t.Errorf("stage %q recomputed against durable warm store", stage)
		return nil
	}
	r2, err := eng2.CheckVersion(ctx, core.NewChecker(eng2.Config().CheckerOptions()...), ga.App)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng2.Stats(); s.Misses != 0 {
		t.Errorf("durable store missed: %+v", s)
	}
	a, b := reportJSON(t, r1), reportJSON(t, r2)
	if !bytes.Equal(a, b) {
		t.Errorf("durable round trip changed the report:\n1: %s\n2: %s", a, b)
	}
}

// TestCorruptArtifactIsMissNotError: a truncated artifact file must
// degrade to a recompute that still yields the cold-run report.
func TestCorruptArtifactIsMissNotError(t *testing.T) {
	store := NewMemStore(0)
	eng := NewEngine(store, Config{})
	fh := synth.NewFirehose(5)
	ga, err := fh.App(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	r1, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored artifact in place.
	store.mu.Lock()
	for k := range store.m {
		store.m[k] = []byte(`{"truncated`)
	}
	store.mu.Unlock()

	r2, err := eng.CheckVersion(ctx, checker, ga.App)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.StoreErrors == 0 {
		t.Error("corrupt artifacts went unnoticed in stats")
	}
	a, b := reportJSON(t, r1), reportJSON(t, r2)
	if !bytes.Equal(a, b) {
		t.Errorf("recompute after corruption changed the report:\n1: %s\n2: %s", a, b)
	}
}
