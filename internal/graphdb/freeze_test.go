package graphdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomGraph builds a random labelled graph: 2..25 nodes over a few
// node labels, ~2 edges per node over a few edge labels, and
// properties drawn from a small vocabulary.
func randomGraph(r *rand.Rand) (*Graph, []NodeID) {
	g := New()
	nodeLabels := []string{"class", "method", "stmt"}
	edgeLabels := []string{"calls", "cfg", "du", "contains"}
	props := []string{"a", "b", "c"}
	n := 2 + r.Intn(24)
	ids := make([]NodeID, n)
	for i := range ids {
		label := nodeLabels[r.Intn(len(nodeLabels))]
		if r.Intn(3) == 0 {
			ids[i] = g.AddNodeKV(label, "kind", props[r.Intn(len(props))], "name", props[r.Intn(len(props))])
		} else {
			ids[i] = g.AddNodeKV(label, "name", props[r.Intn(len(props))])
		}
	}
	for i := 0; i < n*2; i++ {
		_ = g.AddEdge(ids[r.Intn(n)], ids[r.Intn(n)], edgeLabels[r.Intn(len(edgeLabels))])
	}
	return g, ids
}

// TestFrozenNeighborsDifferential: OutInto and OutDegree on the frozen
// view equal the builder's out runs exactly (order included) for every
// node and label, including the unfiltered "" label, labels absent
// from the graph, and ids outside it.
func TestFrozenNeighborsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		labels := []string{"", "calls", "cfg", "du", "contains", "nosuch"}
		for _, id := range append(ids, 0, NodeID(len(ids)+5)) {
			for _, lab := range labels {
				if want, got := refOut(g, id, lab), fz.OutInto(nil, id, lab); !sameIDs(want, got) {
					t.Logf("OutInto(%d,%q): %v, want %v", id, lab, got, want)
					return false
				}
			}
			if len(refOut(g, id, "")) != fz.OutDegree(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// reachableDiff returns "" when ReachableVisit over fz visits exactly
// the reference closure, in the same order, else the first difference.
func reachableDiff(g *Graph, fz *Frozen, seeds []NodeID, labels []string) string {
	want, _ := refBFS(g, seeds, labels)
	vs := fz.ReachableVisit(seeds, labels)
	if !sameIDs(vs.Order, want) || vs.Len() != len(want) {
		return fmt.Sprintf("ReachableVisit(%v,%v).Order = %v, want %v", seeds, labels, vs.Order, want)
	}
	in := map[NodeID]bool{}
	for _, id := range want {
		in[id] = true
	}
	for id := NodeID(-1); id <= NodeID(len(g.nodes)+2); id++ {
		if vs.Has(id) != in[id] {
			return fmt.Sprintf("ReachableVisit(%v,%v).Has(%d) = %v", seeds, labels, id, vs.Has(id))
		}
	}
	return ""
}

// TestFrozenReachableDifferential: frozen reachability equals the
// reference closure — membership and BFS order — for every
// label-filter shape.
func TestFrozenReachableDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		filters := [][]string{nil, {"calls"}, {"calls", "cfg"}, {"nosuch"}, {}}
		for _, labels := range filters {
			seeds := []NodeID{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], 999}
			if d := reachableDiff(g, fz, seeds, labels); d != "" {
				t.Log(d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenPathDifferential: frozen path search returns exactly the
// reference shortest path — both visit edges in insertion order, so
// even tie-breaks agree.
func TestFrozenPathDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		filters := [][]string{nil, {"calls", "du"}, {"nosuch"}}
		for trial := 0; trial < 8; trial++ {
			from, to := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			for _, labels := range filters {
				want, got := refPath(g, from, to, labels), fz.Path(from, to, labels)
				if !sameIDs(want, got) {
					t.Logf("Path(%d,%d,%v): %v, want %v", from, to, labels, got, want)
					return false
				}
			}
		}
		// Unknown endpoints are nil.
		return fz.Path(ids[0], 999, nil) == nil && fz.Path(999, ids[0], nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenWideLabelDifferential: a graph with 70 distinct edge
// labels pushes interned label ids past 63, where the traversal filter
// leaves its bitmask for a set. Filters naming only ids ≥ 64, a mix of
// both sides, and a mix with unknown labels must still match the
// reference closure and paths exactly.
func TestFrozenWideLabelDifferential(t *testing.T) {
	const nLabels = 70
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 10 + r.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNodeKV("n")
		}
		// Every label appears at least once; the rest are random.
		for l := 0; l < nLabels; l++ {
			_ = g.AddEdge(NodeID(1+r.Intn(n)), NodeID(1+r.Intn(n)), fmt.Sprintf("e%d", l))
		}
		for i := 0; i < 3*n; i++ {
			_ = g.AddEdge(NodeID(1+r.Intn(n)), NodeID(1+r.Intn(n)), fmt.Sprintf("e%d", r.Intn(nLabels)))
		}
		fz := g.Freeze()
		byID := make([]string, len(fz.edgeLabelID))
		for l, id := range fz.edgeLabelID {
			byID[id] = l
		}
		if len(byID) != nLabels {
			t.Logf("interned %d labels, want %d", len(byID), nLabels)
			return false
		}
		pick := func(lo, hi, k int) []string {
			var out []string
			for i := 0; i < k; i++ {
				out = append(out, byID[lo+r.Intn(hi-lo)])
			}
			return out
		}
		high := pick(64, nLabels, 4)
		mixed := append(pick(0, 64, 20), pick(64, nLabels, 3)...)
		r.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		filters := [][]string{
			high,
			mixed,
			append(pick(0, 64, 30), byID[nLabels-1], "nosuch"),
			{"nosuch", byID[64]},
			byID, // every label, as a filter
		}
		for _, labels := range filters {
			for trial := 0; trial < 4; trial++ {
				from, to := NodeID(1+r.Intn(n)), NodeID(1+r.Intn(n))
				if d := reachableDiff(g, fz, []NodeID{from}, labels); d != "" {
					t.Log(d)
					return false
				}
				if want, got := refPath(g, from, to, labels), fz.Path(from, to, labels); !sameIDs(want, got) {
					t.Logf("Path(%d,%d,%v): %v, want %v", from, to, labels, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenLookupDifferential: node lookups alias the builder's node
// storage and label lists equal a scan of the builder's nodes.
func TestFrozenLookupDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, ids := randomGraph(r)
		fz := g.Freeze()
		for _, label := range []string{"class", "method", "stmt", "nosuch"} {
			if !sameIDs(fz.NodesByLabel(label), refByLabel(g, label)) {
				t.Logf("NodesByLabel(%q) = %v, want %v", label, fz.NodesByLabel(label), refByLabel(g, label))
				return false
			}
		}
		for _, id := range ids {
			if fz.Node(id) != &g.nodes[id-1] {
				return false
			}
		}
		return fz.Node(0) == nil && fz.Node(NodeID(len(ids)+1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeSnapshot: mutations after Freeze are invisible to the
// frozen view, and the builder keeps working.
func TestFreezeSnapshot(t *testing.T) {
	g := New()
	a := g.AddNodeKV("m", "name", "a")
	b := g.AddNodeKV("m", "name", "b")
	if err := g.AddEdge(a, b, "calls"); err != nil {
		t.Fatal(err)
	}
	fz := g.Freeze()
	c := g.AddNodeKV("m", "name", "a")
	_ = g.AddEdge(b, c, "calls")
	if fz.Node(c) != nil {
		t.Fatal("snapshot sees post-freeze node")
	}
	if got := fz.NodesByLabel("m"); len(got) != 2 {
		t.Fatalf("snapshot label list grew: %v", got)
	}
	if fz.OutDegree(b) != 0 {
		t.Fatalf("snapshot sees post-freeze edge: %v", fz.OutInto(nil, b, ""))
	}
	if got := fz.ReachableVisit([]NodeID{b}, nil); got.Len() != 1 {
		t.Fatalf("snapshot reachability sees new edge: %v", got.Order)
	}
	if got := g.Freeze().ReachableVisit([]NodeID{a}, nil); got.Len() != 3 {
		t.Fatalf("builder closure = %v", got.Order)
	}
}

// TestNodesByLabelSorted: label lists come back in ascending ID order.
func TestNodesByLabelSorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, _ := randomGraph(r)
	fz := g.Freeze()
	total := 0
	for _, label := range []string{"class", "method", "stmt"} {
		ids := fz.NodesByLabel(label)
		total += len(ids)
		if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			t.Fatalf("NodesByLabel(%q) = %v", label, ids)
		}
	}
	if total != len(g.nodes) {
		t.Fatalf("label lists cover %d of %d nodes", total, len(g.nodes))
	}
}

// TestPropsKV: kv-slice properties behave like a map lookup, and an
// odd key/value list is rejected.
func TestPropsKV(t *testing.T) {
	g := New()
	id := g.AddNodeKV("x", "op", "invoke", "index", "3")
	n := g.Freeze().Node(id)
	if n.Prop("op") != "invoke" || n.Prop("index") != "3" || n.Prop("nosuch") != "" {
		t.Fatalf("props = %v", n.Props)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv accepted")
		}
	}()
	g.AddNodeKV("x", "dangling")
}
