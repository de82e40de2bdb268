package esa

// The optional remote tier behind the interpret memo. In the
// distributed topology the same recurring policy/resource phrases are
// interpreted by every worker process; a Backing lets a worker
// consult the coordinator-hosted shard set on a memo miss before
// paying the tokenize-and-accumulate build, and write its own builds
// through for the rest of the fleet.
//
// Correctness contract: a stored vector must decode bit-identical to
// the local build. buildVec computes each weight by accumulating in
// term/posting order and the norm by summing squares in concept order;
// the wire format therefore carries the exact weight slice and the
// decoder recomputes the norm in the same slice order, so a remote hit
// and a local build are indistinguishable. Anything suspect about a
// remote payload — unsorted or out-of-range concepts, non-finite
// weights, malformed JSON — decodes as a miss, never a poisoned
// vector.

import (
	"encoding/json"
	"math"
)

// Backing is an optional remote read-through tier behind a text-keyed
// memo: an Index's interpret memo here, and core's library-policy
// AnalysisCache (core imports esa, so the one contract lives in this
// leaf package). In the distributed topology it is a
// consistent-hash-sharded artifact service hosted by the coordinator.
//
// Load returns the serialized artifact for a text, or false on miss
// OR error: the caller cannot tell the difference and does not need
// to, it just computes locally, so a dead shard degrades throughput,
// never correctness. Store is best-effort write-through;
// implementations swallow their own errors. Both must be safe for
// concurrent use. The key is the raw text; implementations
// content-address it and bind any configuration namespace themselves.
// A backing must only be shared between processes whose computations
// are identical (same KB build, same analyzer configuration).
type Backing interface {
	Load(key string) ([]byte, bool)
	Store(key string, data []byte)
}

// backingBox wraps the interface so atomic.Pointer can represent
// "backing cleared" (nil box field) distinctly from "never set".
type backingBox struct{ b Backing }

// SetVecBacking installs (or, with nil, clears) the remote tier behind
// this index's interpret memo. Safe to call concurrently with lookups:
// in-flight operations use whichever backing they loaded, and a
// cleared or swapped backing degrades to local compute.
func (x *Index) SetVecBacking(b Backing) {
	x.backing.Store(&backingBox{b: b})
}

func (x *Index) vecBacking() Backing {
	if box := x.backing.Load(); box != nil {
		return box.b
	}
	return nil
}

// wireVec is the JSON artifact format: the sparse vector's parallel
// slices, nothing else. The norm is intentionally absent — the decoder
// recomputes it in slice order, exactly as buildVec does, so it cannot
// drift from the weights it describes.
type wireVec struct {
	Concepts []int32   `json:"c"`
	Weights  []float64 `json:"w"`
}

// encodeVec serializes a vector for the remote tier.
func encodeVec(v *ConceptVec) ([]byte, error) {
	return json.Marshal(wireVec{Concepts: v.concepts, Weights: v.weights})
}

// decodeVec deserializes and validates a remote vector against this
// index's concept space. Any violation returns nil (a miss).
func (x *Index) decodeVec(data []byte) *ConceptVec {
	var wv wireVec
	if err := json.Unmarshal(data, &wv); err != nil {
		return nil
	}
	if len(wv.Concepts) != len(wv.Weights) {
		return nil
	}
	n := int32(len(x.concepts))
	var ss float64
	for i, c := range wv.Concepts {
		if c < 0 || c >= n {
			return nil
		}
		if i > 0 && wv.Concepts[i-1] >= c {
			return nil // must be strictly ascending, like buildVec's gather
		}
		w := wv.Weights[i]
		if w == 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil
		}
		ss += w * w
	}
	return &ConceptVec{concepts: wv.Concepts, weights: wv.Weights, norm: math.Sqrt(ss)}
}

// loadRemoteVec consults the backing for a memoizable text. Corrupt
// payloads count as remote failures and read as misses.
func (x *Index) loadRemoteVec(text string, sc *StatScope) (*ConceptVec, bool) {
	b := x.vecBacking()
	if b == nil {
		return nil, false
	}
	data, ok := b.Load(text)
	if !ok {
		return nil, false
	}
	v := x.decodeVec(data)
	if v == nil {
		x.count(sc, func(c *cacheCells) { c.remoteFails.Add(1) })
		return nil, false
	}
	x.count(sc, func(c *cacheCells) { c.remoteHits.Add(1) })
	return v, true
}

// storeRemoteVec writes a locally built vector through, best effort.
func (x *Index) storeRemoteVec(text string, v *ConceptVec, sc *StatScope) {
	b := x.vecBacking()
	if b == nil {
		return
	}
	data, err := encodeVec(v)
	if err != nil {
		x.count(sc, func(c *cacheCells) { c.remoteFails.Add(1) })
		return
	}
	b.Store(text, data)
}

// missVec resolves an interpret-memo miss: the remote tier first (only
// for memoizable texts — the tier exists for the same short recurring
// phrases the memo does), then a local build with write-through. The
// returned terms are non-nil only when the text was tokenized locally,
// so ClassifyWithSupport can reuse them.
func (x *Index) missVec(text string, sc *StatScope) (*ConceptVec, []string) {
	memoize := len(text) <= memoMaxKeyLen
	if memoize {
		if v, ok := x.loadRemoteVec(text, sc); ok {
			if x.memo.put(text, v) {
				x.count(sc, func(c *cacheCells) { c.evictions.Add(1) })
			}
			return v, nil
		}
	}
	terms := Terms(text)
	v := x.buildVec(terms, sc)
	if memoize {
		if x.memo.put(text, v) {
			x.count(sc, func(c *cacheCells) { c.evictions.Add(1) })
		}
		x.storeRemoteVec(text, v, sc)
	}
	return v, terms
}
