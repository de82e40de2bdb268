package graphdb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New()
	ids := map[string]NodeID{}
	for _, name := range []string{"main", "helper", "leaf", "island"} {
		ids[name] = g.AddNodeKV("method", "name", name)
	}
	mustEdge := func(a, b string) {
		t.Helper()
		if err := g.AddEdge(ids[a], ids[b], "calls"); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge("main", "helper")
	mustEdge("helper", "leaf")
	return g, ids
}

func TestAddAndLookup(t *testing.T) {
	g, ids := buildSample(t)
	f := g.Freeze()
	if n := f.Node(ids["main"]); n == nil || n.Prop("name") != "main" || n.Label != "method" {
		t.Fatalf("node lookup failed: %+v", n)
	}
	if n := f.Node(5); n != nil {
		t.Fatalf("node beyond the graph = %+v", n)
	}
	if got := f.NodesByLabel("method"); len(got) != 4 {
		t.Fatalf("by label = %v", got)
	}
	if d := f.OutDegree(ids["main"]) + f.OutDegree(ids["helper"]) + f.OutDegree(ids["leaf"]); d != 2 {
		t.Fatalf("edges = %d", d)
	}
}

func TestEdgesRequireNodes(t *testing.T) {
	g := New()
	id := g.AddNodeKV("x")
	if err := g.AddEdge(id, 999, "e"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge(999, id, "e"); err == nil {
		t.Error("edge from unknown node accepted")
	}
	if err := g.AddEdge(0, id, "e"); err == nil {
		t.Error("edge from node 0 accepted")
	}
}

func TestReachable(t *testing.T) {
	g, ids := buildSample(t)
	f := g.Freeze()
	seen := f.ReachableVisit([]NodeID{ids["main"]}, []string{"calls"})
	for _, name := range []string{"main", "helper", "leaf"} {
		if !seen.Has(ids[name]) {
			t.Errorf("%s not reachable", name)
		}
	}
	if seen.Has(ids["island"]) {
		t.Error("island reachable")
	}
	// Label filtering: no "calls" edges allowed means only the seed.
	seen = f.ReachableVisit([]NodeID{ids["main"]}, []string{"other"})
	if seen.Len() != 1 {
		t.Errorf("label filter ignored: %v", seen.Order)
	}
}

func TestPath(t *testing.T) {
	g, ids := buildSample(t)
	f := g.Freeze()
	path := f.Path(ids["main"], ids["leaf"], nil)
	if len(path) != 3 || path[0] != ids["main"] || path[2] != ids["leaf"] {
		t.Fatalf("path = %v", path)
	}
	if p := f.Path(ids["main"], ids["island"], nil); p != nil {
		t.Fatalf("phantom path = %v", p)
	}
	if p := f.Path(ids["main"], 999, nil); p != nil {
		t.Fatalf("path to unknown node = %v", p)
	}
	// Path to self is the single node.
	if p := f.Path(ids["main"], ids["main"], nil); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
}

// TestPathIsEdgeWalkProperty: over random graphs, any path Path
// reports starts and ends at the asked endpoints and each hop is a
// real out-edge.
func TestPathIsEdgeWalkProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + r.Intn(20)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNodeKV("n")
		}
		for i := 0; i < n*2; i++ {
			if err := g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], "e"); err != nil {
				return false
			}
		}
		fz := g.Freeze()
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		path := fz.Path(from, to, nil)
		if path == nil {
			return true
		}
		if path[0] != from || path[len(path)-1] != to {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			hop := false
			for _, nxt := range fz.OutInto(nil, path[i], "") {
				hop = hop || nxt == path[i+1]
			}
			if !hop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReachableMatchesPath: to is reachable iff a path exists.
func TestReachableMatchesPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + r.Intn(15)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNodeKV("n")
		}
		for i := 0; i < n; i++ {
			_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], "e")
		}
		fz := g.Freeze()
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		reach := fz.ReachableVisit([]NodeID{from}, nil)
		return reach.Has(to) == (fz.Path(from, to, nil) != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOutIntoCopies: OutInto appends after whatever dst holds, and the
// caller may mutate the result without corrupting the view.
func TestOutIntoCopies(t *testing.T) {
	g, ids := buildSample(t)
	f := g.Freeze()
	got := f.OutInto([]NodeID{42}, ids["main"], "")
	if !sameIDs(got, []NodeID{42, ids["helper"]}) {
		t.Fatalf("OutInto = %v", got)
	}
	got[1] = 999
	if again := f.OutInto(nil, ids["main"], "calls"); !sameIDs(again, []NodeID{ids["helper"]}) {
		t.Fatalf("view mutated through OutInto result: %v", again)
	}
}

func TestReachableFromUnknownSeed(t *testing.T) {
	g, _ := buildSample(t)
	f := g.Freeze()
	if seen := f.ReachableVisit([]NodeID{12345, 0, -1}, nil); seen.Len() != 0 || seen.Has(12345) {
		t.Fatalf("unknown seed reachable set = %v", seen.Order)
	}
}

// TestNodesByLabelFreshSlices: repeated lookups agree, and each returns
// a fresh slice the caller may mutate without affecting the view.
func TestNodesByLabelFreshSlices(t *testing.T) {
	g, ids := buildSample(t)
	f := g.Freeze()
	first := f.NodesByLabel("method")
	if len(first) != 4 || first[0] != ids["main"] {
		t.Fatalf("NodesByLabel = %v", first)
	}
	first[0] = 999
	if got := f.NodesByLabel("method"); got[0] != ids["main"] {
		t.Fatalf("NodesByLabel after caller mutation = %v", got)
	}
}
