package apg_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"ppchecker/internal/apg"
	"ppchecker/internal/synth"
)

// TestArenaBuildCostFlatOverDistinctApps: one reused BuildScratch (the
// per-worker arena of stream, dist and serve) must build app N as fast
// as app 1 000. Retained graph state that grows with every distinct
// method or class name the arena has seen makes the per-app build cost
// climb with stream length; here the median build time of the last
// 1 000 of 20 000 distinct firehose apps may be at most twice that of
// apps 1 000–2 000.
func TestArenaBuildCostFlatOverDistinctApps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 20 000 apps")
	}
	const (
		apps   = 20000
		window = 1000
	)
	fh := synth.NewFirehose(1)
	ctx := context.Background()
	opts := apg.DefaultOptions()
	var scratch apg.BuildScratch
	early := make([]time.Duration, 0, window)
	late := make([]time.Duration, 0, window)
	for i := int64(0); i < apps; i++ {
		gen, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		a := gen.App.APK
		if a == nil || a.Dex == nil {
			continue
		}
		start := time.Now()
		if _, err := apg.BuildCtxWith(ctx, a, opts, &scratch); err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		d := time.Since(start)
		switch {
		case i >= window && i < 2*window:
			early = append(early, d)
		case i >= apps-window:
			late = append(late, d)
		}
	}
	if len(early) < window/2 || len(late) < window/2 {
		t.Fatalf("too few timed builds: %d early, %d late", len(early), len(late))
	}
	e, l := median(early), median(late)
	t.Logf("median build: apps %d-%d %v, last %d %v (%.2fx)",
		window, 2*window, e, window, l, float64(l)/float64(e))
	if l > 2*e {
		t.Fatalf("per-app build cost grew with stream length: median %v over the last %d apps vs %v over apps %d-%d",
			l, window, e, window, 2*window)
	}
}

func median(ds []time.Duration) time.Duration {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[len(ds)/2]
}
