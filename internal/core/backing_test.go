package core

import (
	"sync"
	"testing"

	"ppchecker/internal/policy"
)

// mapBacking is an in-memory esa.Backing; failGets makes every Load
// report a miss, the contract a dead remote shard degrades to.
type mapBacking struct {
	mu       sync.Mutex
	m        map[string][]byte
	loads    int
	stores   int
	failGets bool
}

func (b *mapBacking) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	if b.failGets {
		return nil, false
	}
	data, ok := b.m[key]
	return data, ok
}

func (b *mapBacking) Store(key string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = append([]byte(nil), data...)
}

func TestBackedAnalysisCacheReadThrough(t *testing.T) {
	backing := &mapBacking{m: map[string][]byte{}}
	a := NewBackedAnalysisCache(backing)

	computes := 0
	compute := func() *policy.Analysis {
		computes++
		return &policy.Analysis{Collect: []string{"location"}, Disclaimer: true}
	}

	// Cold everywhere: local miss, remote miss, compute, write-through.
	got, cached := a.Get("policy-text", compute)
	if cached || computes != 1 || got == nil || !got.Disclaimer {
		t.Fatalf("cold get: cached=%v computes=%d got=%+v", cached, computes, got)
	}
	if backing.stores != 1 {
		t.Fatalf("stores = %d, want 1 (write-through after compute)", backing.stores)
	}

	// A second cache (another worker process) sharing the backing
	// serves the same key remotely, without computing.
	b := NewBackedAnalysisCache(backing)
	got2, cached2 := b.Get("policy-text", func() *policy.Analysis {
		t.Fatal("remote hit must not compute")
		return nil
	})
	if !cached2 || got2 == nil || !got2.Disclaimer || len(got2.Collect) != 1 || got2.Collect[0] != "location" {
		t.Fatalf("remote get: cached=%v got=%+v", cached2, got2)
	}
	if hits, fails := b.BackingStats(); hits != 1 || fails != 0 {
		t.Fatalf("backing stats = %d hits, %d fails", hits, fails)
	}

	// Local entries still short-circuit: no second remote load.
	loadsBefore := backing.loads
	if _, cached := b.Get("policy-text", compute); !cached {
		t.Fatal("local re-get must hit")
	}
	if backing.loads != loadsBefore {
		t.Fatal("local hit must not consult the backing")
	}
}

func TestBackedAnalysisCacheDeadShardFallsBack(t *testing.T) {
	backing := &mapBacking{m: map[string][]byte{}, failGets: true}
	a := NewBackedAnalysisCache(backing)
	computes := 0
	got, cached := a.Get("k", func() *policy.Analysis {
		computes++
		return &policy.Analysis{Use: []string{"contacts"}}
	})
	if cached || computes != 1 || got == nil {
		t.Fatalf("dead shard: cached=%v computes=%d", cached, computes)
	}
}

func TestBackedAnalysisCacheCorruptArtifactIsAMiss(t *testing.T) {
	backing := &mapBacking{m: map[string][]byte{"k": []byte("{torn")}}
	a := NewBackedAnalysisCache(backing)
	computes := 0
	_, cached := a.Get("k", func() *policy.Analysis {
		computes++
		return &policy.Analysis{}
	})
	if cached || computes != 1 {
		t.Fatalf("corrupt artifact: cached=%v computes=%d", cached, computes)
	}
	if _, fails := a.BackingStats(); fails != 1 {
		t.Fatalf("remote fails = %d, want 1", fails)
	}
}
