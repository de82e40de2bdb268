package synth

import (
	"bytes"
	"sync"
	"testing"

	"ppchecker/internal/apk"
)

// TestFirehoseDeterministic: app i is a pure function of (seed, i) —
// two independent generators produce byte-identical bundles, which is
// the property checkpoint/resume of a firehose run rests on.
func TestFirehoseDeterministic(t *testing.T) {
	a, b := NewFirehose(1234), NewFirehose(1234)
	for _, i := range []int64{0, 1, 7, 8, 63, 1000003} {
		ga, err := a.App(i)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.App(i)
		if err != nil {
			t.Fatal(err)
		}
		if ga.App.Name != gb.App.Name || ga.App.PolicyHTML != gb.App.PolicyHTML ||
			ga.App.Description != gb.App.Description {
			t.Fatalf("app %d text differs between generators", i)
		}
		apkA, err := apk.Encode(ga.App.APK)
		if err != nil {
			t.Fatal(err)
		}
		apkB, err := apk.Encode(gb.App.APK)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(apkA, apkB) {
			t.Fatalf("app %d APK bytes differ between generators", i)
		}
		ta, tb := ga.Truth, gb.Truth
		ta.Plan, tb.Plan = nil, nil
		if ta != tb {
			t.Fatalf("app %d ground truth differs: %+v vs %+v", i, ta, tb)
		}
	}
}

// TestFirehoseSeedMatters: a different seed produces different apps.
func TestFirehoseSeedMatters(t *testing.T) {
	a, b := NewFirehose(1), NewFirehose(2)
	same := 0
	for i := int64(0); i < 8; i++ {
		ga, err := a.App(i)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.App(i)
		if err != nil {
			t.Fatal(err)
		}
		if ga.App.PolicyHTML == gb.App.PolicyHTML && ga.App.Description == gb.App.Description {
			same++
		}
	}
	if same == 8 {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
}

// TestFirehoseArchetypeRotation: the i%8 rotation plants each
// archetype at its slot, so any window of the stream exercises every
// pipeline path.
func TestFirehoseArchetypeRotation(t *testing.T) {
	fh := NewFirehose(55)
	for i := int64(0); i < 16; i++ {
		ga, err := fh.App(i)
		if err != nil {
			t.Fatal(err)
		}
		plan := ga.Truth.Plan
		if plan == nil {
			t.Fatalf("app %d has no plan", i)
		}
		switch i % 8 {
		case 1:
			if len(plan.Missed) == 0 {
				t.Errorf("app %d (missed slot) has no missed infos", i)
			}
		case 2:
			if len(plan.DescPerms) == 0 {
				t.Errorf("app %d (desc slot) has no desc perms", i)
			}
		case 4:
			if !plan.CallbackReached {
				t.Errorf("app %d (callback slot) not callback-reached", i)
			}
		case 5:
			if !plan.Packed {
				t.Errorf("app %d (packed slot) not packed", i)
			}
			if !ga.App.APK.Packed {
				t.Errorf("app %d built unpacked despite packed plan", i)
			}
		case 6:
			if !plan.ColonFP {
				t.Errorf("app %d (colon slot) has no colon shape", i)
			}
		case 7:
			if plan.IncorrectRetain == nil {
				t.Errorf("app %d (incorrect slot) has no incorrect retain", i)
			}
		}
		if len(plan.CoveredInfos) == 0 {
			t.Errorf("app %d covers no infos", i)
		}
	}
}

// TestFirehoseConcurrent: App is safe to call from multiple goroutines
// and still deterministic.
func TestFirehoseConcurrent(t *testing.T) {
	fh := NewFirehose(9)
	want, err := fh.App(13)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fh.App(13)
			if err != nil {
				t.Error(err)
				return
			}
			if got.App.PolicyHTML != want.App.PolicyHTML || got.App.Name != want.App.Name {
				t.Error("concurrent generation diverged")
			}
		}()
	}
	wg.Wait()
}

// TestFirehoseNegativeIndex: negative indexes are rejected, not mixed.
func TestFirehoseNegativeIndex(t *testing.T) {
	if _, err := NewFirehose(1).App(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestFirehoseNameMatchesApp: FirehoseName names app i without
// generating it, and agrees with the generated app's package name.
func TestFirehoseNameMatchesApp(t *testing.T) {
	for _, seed := range []int64{1, 7919} {
		fh := NewFirehose(seed)
		for i := int64(0); i < 1000; i++ {
			ga, err := fh.App(i)
			if err != nil {
				t.Fatal(err)
			}
			if got := FirehoseName(i); got != ga.App.Name {
				t.Fatalf("seed %d app %d: FirehoseName %q, generated %q", seed, i, got, ga.App.Name)
			}
		}
	}
}
