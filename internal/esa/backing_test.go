package esa

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// mapBacking is an in-memory Backing.
type mapBacking struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *mapBacking) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	return data, ok
}

func (b *mapBacking) Store(key string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), data...)
}

const (
	backedText = "we collect your precise location and device identifiers"
	otherText  = "gps coordinates of the phone"
)

// TestRemoteVecDecoderRejectsBadPayloads: every malformed remote
// vector reads as a miss, counts one RemoteFail, and leaves the
// similarity bit-identical to an index with no backing. A clean
// payload written by one index is a RemoteHit in another, with
// ==-equal weights and norm.
func TestRemoteVecDecoderRejectsBadPayloads(t *testing.T) {
	plain := New(BuiltinKB())
	want := plain.Similarity(backedText, otherText)
	clean := plain.InterpretVec(backedText)
	n := int32(len(plain.concepts))
	if clean.Len() < 2 || want == 0 {
		t.Fatalf("fixture text too weak: %d concepts, similarity %v", clean.Len(), want)
	}
	cleanJSON, err := encodeVec(clean)
	if err != nil {
		t.Fatal(err)
	}
	// mutate returns the clean payload with one edit applied.
	mutate := func(edit func(*wireVec)) []byte {
		wv := wireVec{
			Concepts: append([]int32(nil), clean.concepts...),
			Weights:  append([]float64(nil), clean.weights...),
		}
		edit(&wv)
		data, err := json.Marshal(wv)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// withWeight splices a raw JSON number in as the first weight, for
	// values json.Marshal refuses to write.
	withWeight := func(raw string) []byte {
		s := string(cleanJSON)
		i := strings.Index(s, `"w":[`) + len(`"w":[`)
		j := i + strings.IndexAny(s[i:], ",]")
		return []byte(s[:i] + raw + s[j:])
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"length mismatch", mutate(func(w *wireVec) { w.Weights = w.Weights[:len(w.Weights)-1] })},
		{"concept -1", mutate(func(w *wireVec) { w.Concepts[0] = -1 })},
		{"concept n", mutate(func(w *wireVec) { w.Concepts[len(w.Concepts)-1] = n })},
		{"non-ascending", mutate(func(w *wireVec) { w.Concepts[0], w.Concepts[1] = w.Concepts[1], w.Concepts[0] })},
		{"duplicate concept", mutate(func(w *wireVec) { w.Concepts[1] = w.Concepts[0] })},
		{"weight 0", mutate(func(w *wireVec) { w.Weights[0] = 0 })},
		{"weight -0", withWeight("-0")},
		// JSON has no NaN or infinity; a payload that spells them is
		// rejected while decoding, before the weight checks.
		{"weight NaN", withWeight("NaN")},
		{"weight +Inf", withWeight("1e400")},
		{"weight -Inf", withWeight("-1e400")},
		{"torn JSON", cleanJSON[:len(cleanJSON)/2]},
		{"empty payload", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := New(BuiltinKB())
			x.SetVecBacking(&mapBacking{m: map[string][]byte{backedText: tc.payload}})
			got := x.Similarity(backedText, otherText)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("similarity %v, want %v", got, want)
			}
			if s := x.CacheStats(); s.RemoteFails != 1 || s.RemoteHits != 0 {
				t.Errorf("RemoteFails=%d RemoteHits=%d, want 1 and 0", s.RemoteFails, s.RemoteHits)
			}
		})
	}

	t.Run("clean round trip", func(t *testing.T) {
		shared := &mapBacking{m: map[string][]byte{}}
		writer := New(BuiltinKB())
		writer.SetVecBacking(shared)
		if got := writer.Similarity(backedText, otherText); got != want {
			t.Fatalf("writer similarity %v, want %v", got, want)
		}
		reader := New(BuiltinKB())
		reader.SetVecBacking(shared)
		if got := reader.Similarity(backedText, otherText); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("reader similarity %v, want %v", got, want)
		}
		if s := reader.CacheStats(); s.RemoteHits != 2 || s.RemoteFails != 0 {
			t.Errorf("RemoteHits=%d RemoteFails=%d, want 2 and 0", s.RemoteHits, s.RemoteFails)
		}
		for _, text := range []string{backedText, otherText} {
			local, remote := plain.InterpretVec(text), reader.InterpretVec(text)
			if remote.norm != local.norm || len(remote.weights) != len(local.weights) {
				t.Fatalf("%q: norm %v len %d, want %v len %d", text, remote.norm, len(remote.weights), local.norm, len(local.weights))
			}
			for i := range local.weights {
				if remote.concepts[i] != local.concepts[i] || remote.weights[i] != local.weights[i] {
					t.Fatalf("%q entry %d: (%d, %v), want (%d, %v)", text, i,
						remote.concepts[i], remote.weights[i], local.concepts[i], local.weights[i])
				}
			}
		}
	})
}
